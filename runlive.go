package brisa

import (
	"context"
	"time"
)

// liveStabilize bounds the post-join readiness poll when the topology does
// not set StabilizeTime: loopback overlays connect in milliseconds, loaded
// CI machines get generous headroom.
const liveStabilize = 10 * time.Second

// Run executes the scenario on live TCP nodes: bind one node per topology
// slot (per-peer configs derived by join index), bootstrap with a readiness
// poll, inject workloads in wall time, replay the churn script against real
// sockets, and collect probes — the livenet wire tap backing ProbeTraffic —
// into a Report of the same shape the simulator produces. Prefer the
// package-level Run, which applies defaults and stamps run metadata.
func (rt LiveRuntime) Run(ctx context.Context, sc Scenario) (*Report, error) {
	addr := rt.Addr
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	return execute(ctx, rt.Name(), sc, func(sc Scenario, col *collector) (placement, error) {
		return &inProcess{addr: addr, sc: sc, col: col}, nil
	})
}

// inProcess places every peer in this process as a live Node on its own
// socket. The shared collector is attached to each node before it joins,
// so no delivery can be missed, and state is polled through Node.Do.
type inProcess struct {
	addr string
	sc   Scenario
	col  *collector
}

func (p *inProcess) stabilize() time.Duration { return liveStabilize }

// check accepts every valid config: nothing crosses a process boundary.
func (p *inProcess) check(Config) error { return nil }

func (p *inProcess) spawn(_ context.Context, _ int, cfg Config) (*member, error) {
	node, err := Listen(p.addr, cfg)
	if err != nil {
		return nil, err
	}
	p.col.instrument(node.peer)
	return &member{id: node.ID(), addr: node.Addr(), node: node}, nil
}

// join always waits: Node.Join blocks until the overlay accepts the node.
func (p *inProcess) join(_ context.Context, m *member, contacts []string, _ bool) error {
	return m.node.Join(contacts...)
}

func (p *inProcess) neighbors(_ context.Context, m *member) int { return len(m.node.Neighbors()) }

func (p *inProcess) publish(_ context.Context, m *member, wi, i int, blob bool) error {
	if blob {
		w := p.sc.BlobWorkloads[wi]
		data := blobPayload(w.Stream, i, w.Size)
		var id uint32
		var err error
		m.node.Do(func(peer *Peer) { id, err = peer.brisa.PublishBlob(w.Stream, data, w.params()) })
		if err != nil {
			return err
		}
		// Recording after the call is safe: hash verification runs at fold
		// time, after every injection goroutine joined.
		p.col.blobPublished(wi, id, len(data), blobHash(data))
		return nil
	}
	// The sequence number is recorded before the publish so a delivery
	// racing in on another node's actor finds the timestamp.
	w := p.sc.Workloads[wi]
	p.col.published(wi, uint32(i+1), time.Now())
	m.node.Publish(w.Stream, make([]byte, w.Payload))
	return nil
}

func (p *inProcess) kill(_ context.Context, m *member) { m.node.Close() }

func (p *inProcess) delivered(m *member, wi int, blob bool) int {
	if blob {
		return int(m.node.BlobsDelivered(p.sc.BlobWorkloads[wi].Stream))
	}
	return int(m.node.DeliveredCount(p.sc.Workloads[wi].Stream))
}

// barrier is a no-op: every read below goes to the node itself.
func (p *inProcess) barrier(context.Context, []*member) error { return nil }

func (p *inProcess) metrics(m *member) Metrics     { return m.node.Metrics() }
func (p *inProcess) traffic(m *member) WireTraffic { return m.node.Traffic() }

// gather detaches the collector: its per-node accumulators are written
// lock-free on each node's actor, so no listener may fire once folding
// begins. After detach no new callback can fire, and the per-actor
// snapshot Do()s of the fold order every callback that already ran before
// the fold reads its accumulator.
func (p *inProcess) gather([]*member) { p.col.detach() }

func (p *inProcess) streamSnap(m *member, wi int) peerSnapshot {
	var snap peerSnapshot
	m.node.Do(func(peer *Peer) { snap = snapshotPeer(peer, p.sc.Workloads[wi].Stream) })
	return snap
}

func (p *inProcess) blobStats(m *member, wi int) BlobStats {
	return m.node.BlobStats(p.sc.BlobWorkloads[wi].Stream)
}

func (p *inProcess) close(all []*member) {
	p.col.detach()
	for _, m := range all {
		m.node.Close()
	}
}
