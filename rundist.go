package brisa

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ids"
	"repro/internal/monitor"
	"repro/internal/stats"
)

// DistRuntime runs scenarios across machines: real peer processes spawned by
// pre-started brisa-agent daemons (one per host), streaming measurements
// back to an in-driver monitor collector that folds them into the shared
// Report. The unchanged Scenario grammar applies — Topology places
// join-indexed peers round-robin across the agents (PeerConfig re-keying
// carries over), Workloads and BlobWorkloads are dispatched to the owning
// agent, and Churn scripts kill and restart real remote processes.
//
// Everything works with all agents on 127.0.0.1 (how CI exercises it) and
// across real hosts; cross-host latency measurements inherit the hosts'
// clock synchronization (see internal/monitor). Like LiveRuntime, dist runs
// are wall-clock and not seed-reproducible.
type DistRuntime struct {
	// Agents are the control addresses of pre-started brisa-agent daemons
	// ("host:port"). Required; peers are placed round-robin across them in
	// join-index order.
	Agents []string
	// Monitor is the address the driver's measurement collector listens on
	// (default "127.0.0.1:0"). On multi-host deployments set it to an
	// address on the driver's host that every agent host can reach.
	Monitor string
	// DialTimeout bounds each agent control-connection dial (default 5s).
	DialTimeout time.Duration
}

// Name implements Runtime.
func (DistRuntime) Name() string { return "dist" }

// SupportsBlobs implements BlobCapable.
func (DistRuntime) SupportsBlobs() bool { return true }

// distStabilize bounds the post-join readiness poll when the topology does
// not set StabilizeTime: process spawns and real links are slower than
// loopback goroutines, so the dist default is above liveStabilize.
const distStabilize = 30 * time.Second

// distFlushTimeout bounds each flush barrier (spawned workers answer in
// milliseconds; the headroom covers loaded CI machines).
const distFlushTimeout = 30 * time.Second

// Run executes the scenario across the runtime's agents: spawn one worker
// process per topology slot (round-robin), bootstrap with a readiness poll,
// dispatch workloads to the owning agents in wall time, replay the churn
// script by killing and spawning real remote processes, and fold the
// monitor stream — behind flush barriers, in sorted node order — into a
// Report of the same shape the other runtimes produce. Prefer the
// package-level Run, which applies defaults and stamps run metadata.
func (rt DistRuntime) Run(ctx context.Context, sc Scenario) (*Report, error) {
	return execute(ctx, rt.Name(), sc, func(sc Scenario, col *collector) (placement, error) {
		if len(rt.Agents) == 0 {
			return nil, fmt.Errorf("DistRuntime needs at least one agent address")
		}
		monAddr := rt.Monitor
		if monAddr == "" {
			monAddr = "127.0.0.1:0"
		}
		mon, err := monitor.NewCollector(monAddr)
		if err != nil {
			return nil, err
		}
		p := &agentPlacement{sc: sc, col: col, mon: mon}
		dialTimeout := rt.DialTimeout
		if dialTimeout == 0 {
			dialTimeout = 5 * time.Second
		}
		for _, addr := range rt.Agents {
			a, err := dialAgent(addr, dialTimeout)
			if err != nil {
				p.close(nil)
				return nil, err
			}
			p.agents = append(p.agents, a)
		}
		return p, nil
	})
}

// agentPlacement places peers as worker processes, round-robin across the
// agents in join-index order. Workers stream raw measurements to the
// driver's monitor collector; reads go through flush barriers, and gather
// folds the delivery samples into the shared collector's accumulators.
type agentPlacement struct {
	sc     Scenario
	col    *collector
	mon    *monitor.Collector
	agents []*agentConn
	token  atomic.Uint64 // last flush-barrier token
}

func (p *agentPlacement) stabilize() time.Duration { return distStabilize }

// check rejects configs that cannot cross a process boundary.
func (p *agentPlacement) check(cfg Config) error {
	_, err := distConfigOf(cfg)
	return err
}

func (p *agentPlacement) spawn(ctx context.Context, idx int, cfg Config) (*member, error) {
	dc, err := distConfigOf(cfg)
	if err != nil {
		return nil, err
	}
	a := p.agents[idx%len(p.agents)]
	spec := DistWorkerSpec{
		Agent:         a.addr,
		Index:         idx,
		Monitor:       p.mon.Addr(),
		Config:        dc,
		Workloads:     p.sc.Workloads,
		BlobWorkloads: p.sc.BlobWorkloads,
		Probes:        p.sc.Probes,
	}
	resp, err := a.call(ctx, distCtrlReq{Op: "spawn", Spec: &spec})
	if err != nil {
		return nil, err
	}
	id, err := ParseNodeID(resp.Node)
	if err != nil {
		return nil, fmt.Errorf("agent %s: worker node id %q: %w", a.addr, resp.Node, err)
	}
	// The worker says hello to the monitor before it answers the agent.
	if err := p.mon.WaitFor(ctx, []NodeID{id}, distFlushTimeout); err != nil {
		return nil, err
	}
	return &member{id: id, addr: resp.Addr, agent: a, worker: resp.Worker}, nil
}

// join with wait=false lets the worker bootstrap on its own goroutine, so
// its command loop keeps serving flush barriers.
func (p *agentPlacement) join(ctx context.Context, m *member, contacts []string, wait bool) error {
	_, err := m.agent.workerCmd(ctx, m.worker, distWorkerCmd{Op: "join", Contacts: contacts, Wait: wait})
	return err
}

func (p *agentPlacement) neighbors(ctx context.Context, m *member) int {
	resp, err := m.agent.workerCmd(ctx, m.worker, distWorkerCmd{Op: "ready"})
	if err != nil {
		return 0
	}
	return resp.Neighbors
}

// publish has the source's worker publish and record the instant on its
// own clock, streamed to the monitor.
func (p *agentPlacement) publish(ctx context.Context, m *member, wi, i int, blob bool) error {
	cmd := distWorkerCmd{Op: "publish", WI: wi}
	if blob {
		cmd = distWorkerCmd{Op: "publishblob", WI: wi, Index: i}
	}
	_, err := m.agent.workerCmd(ctx, m.worker, cmd)
	return err
}

// kill SIGKILLs the worker process through its agent. The response races
// nothing: the victim is already dead to the executor, and the agent reaps
// the process.
func (p *agentPlacement) kill(ctx context.Context, m *member) {
	_, _ = m.agent.call(ctx, distCtrlReq{Op: "kill", Worker: m.worker})
}

// delivered counts from the monitor's buffered sample stream, at most one
// worker flush interval stale.
func (p *agentPlacement) delivered(m *member, wi int, blob bool) int {
	if blob {
		return p.mon.BlobDoneCount(m.id, wi)
	}
	return p.mon.DeliveredCount(m.id, wi)
}

// barrier runs one flush round: every listed worker drains its buffers and
// snapshots onto its monitor connection, then the collector is awaited
// until it has seen the token from all of them — after which it holds a
// consistent cut of their measurements.
func (p *agentPlacement) barrier(ctx context.Context, ms []*member) error {
	token := p.token.Add(1)
	var wg sync.WaitGroup
	errs := make([]error, len(ms))
	for i, m := range ms {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = m.agent.workerCmd(ctx, m.worker, distWorkerCmd{Op: "flush", Token: token})
		}()
	}
	wg.Wait()
	nodes := make([]NodeID, len(ms))
	for i, m := range ms {
		if errs[i] != nil {
			return fmt.Errorf("flush node %d: %w", m.index, errs[i])
		}
		nodes[i] = m.id
	}
	return p.mon.WaitFlush(ctx, token, nodes, distFlushTimeout)
}

// view runs fn on m's monitor state, if any, under the monitor's lock.
func (p *agentPlacement) view(m *member, fn func(ns *monitor.NodeState)) {
	p.mon.View(func(nodes map[ids.NodeID]*monitor.NodeState, _ map[int]map[uint32]int64, _ map[int]map[uint32]monitor.BlobPublished) {
		if ns := nodes[m.id]; ns != nil {
			fn(ns)
		}
	})
}

func (p *agentPlacement) metrics(m *member) (out Metrics) {
	p.view(m, func(ns *monitor.NodeState) {
		nm := ns.Metrics
		out = Metrics{ParentsLost: nm.ParentsLost, Orphans: nm.Orphans, SoftRepairs: nm.SoftRepairs, HardRepairs: nm.HardRepairs}
	})
	return out
}

func (p *agentPlacement) traffic(m *member) (out WireTraffic) {
	p.view(m, func(ns *monitor.NodeState) { out = WireTraffic(ns.Traffic) })
	return out
}

func (p *agentPlacement) streamSnap(m *member, wi int) peerSnapshot {
	snap := peerSnapshot{id: m.id}
	p.view(m, func(ns *monitor.NodeState) {
		if st := ns.Streams[wi]; st != nil && st.Snap != nil {
			ss := st.Snap
			snap.delivered = ss.Delivered
			snap.orphan = ss.Orphan
			snap.parents = ss.Parents
			snap.depth = int(ss.Depth)
			snap.depthOK = ss.DepthOK
			snap.construction = time.Duration(ss.ConstructNanos)
			snap.constructOK = ss.ConstructOK
		}
	})
	return snap
}

func (p *agentPlacement) blobStats(m *member, wi int) (out BlobStats) {
	p.view(m, func(ns *monitor.NodeState) {
		if st := ns.Blobs[wi]; st != nil && st.Snap != nil {
			s := st.Snap
			out = BlobStats{
				Published:      s.Published,
				Delivered:      s.Delivered,
				Dropped:        s.Dropped,
				ChunksReceived: s.ChunksReceived,
				ChunkDups:      s.ChunkDups,
				ChunksPulled:   s.ChunksPulled,
				ChunksServed:   s.ChunksServed,
				WantsSent:      s.WantsSent,
				ChunkBytesSent: s.ChunkBytesSent,
			}
		}
	})
	return out
}

// gather fills the shared collector from the monitor stream: publish
// instants, blob hashes and sizes, and each survivor's delivery samples,
// duplicates, blob completions and hard-repair delays land in the same
// accumulators the in-process collector fills from its listeners.
func (p *agentPlacement) gather(survivors []*member) {
	col := p.col
	p.mon.View(func(nodes map[ids.NodeID]*monitor.NodeState, pubs map[int]map[uint32]int64, blobs map[int]map[uint32]monitor.BlobPublished) {
		for wi, ws := range col.ws {
			for seq, at := range pubs[wi] {
				ws.pubAt[seq] = time.Unix(0, at)
			}
			ws.pubs = len(pubs[wi])
		}
		for wi, bs := range col.bws {
			for id, bp := range blobs[wi] {
				bs.hashes[id] = bp.Hash
				bs.bytes += int64(bp.Size)
			}
			bs.pubs = len(blobs[wi])
		}
		for _, m := range survivors {
			ns := nodes[m.id]
			if ns == nil {
				continue
			}
			for wi, ws := range col.ws {
				acc := &nodeAcc{}
				ws.accs[m.id] = acc
				if st := ns.Streams[wi]; st != nil {
					acc.dups = st.Dups
					for _, s := range st.Samples {
						col.delivered(wi, acc, m.id, s.Seq, time.Unix(0, s.At))
					}
				}
			}
			for wi, bs := range col.bws {
				acc := &blobAcc{recs: make(map[uint32]blobRec)}
				bs.accs[m.id] = acc
				if st := ns.Blobs[wi]; st != nil {
					for id, done := range st.Done {
						lat := time.Duration(done.LatNanos).Seconds()
						rec := blobRec{hash: done.Hash, lat: lat}
						if lat > 0 {
							rec.mbps = float64(done.Bytes) / (1 << 20) / lat
						}
						acc.recs[id] = rec
					}
				}
			}
			if p.sc.probed(ProbeRepairs) && len(ns.HardNanos) > 0 {
				hard := &stats.Sample{}
				for _, d := range ns.HardNanos {
					hard.AddDuration(time.Duration(d))
				}
				col.hard[m.id] = hard
			}
		}
	})
}

// close closes the agent control connections — each agent then kills every
// worker that connection spawned — and the monitor.
func (p *agentPlacement) close([]*member) {
	for _, a := range p.agents {
		a.close()
	}
	p.mon.Close()
}

// ---------------------------------------------------------------- agents

// distCtrlReq/distCtrlResp are the brisa-agent control protocol (JSON
// lines, pipelined by request id).
type distCtrlReq struct {
	ID     int64           `json:"id"`
	Op     string          `json:"op"`
	Spec   *DistWorkerSpec `json:"spec,omitempty"`
	Worker int             `json:"worker,omitempty"`
	Req    json.RawMessage `json:"req,omitempty"`
}

type distCtrlResp struct {
	ID     int64           `json:"id"`
	OK     bool            `json:"ok"`
	Err    string          `json:"err,omitempty"`
	Worker int             `json:"worker,omitempty"`
	Addr   string          `json:"addr,omitempty"`
	Node   string          `json:"node,omitempty"`
	Resp   json.RawMessage `json:"resp,omitempty"`
}

// agentConn is one control connection to a brisa-agent: requests carry
// correlation ids, a reader goroutine routes responses back to callers, so
// independent goroutines (publish pacing, churn, flush barriers) share it.
type agentConn struct {
	addr string
	conn net.Conn

	sendMu sync.Mutex
	mu     sync.Mutex
	next   int64
	pend   map[int64]chan distCtrlResp
	broken error
}

func dialAgent(addr string, timeout time.Duration) (*agentConn, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("agent %s: %w", addr, err)
	}
	a := &agentConn{addr: addr, conn: conn, pend: make(map[int64]chan distCtrlResp)}
	go a.readLoop()
	return a, nil
}

func (a *agentConn) readLoop() {
	in := bufio.NewScanner(a.conn)
	in.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for in.Scan() {
		var resp distCtrlResp
		if err := json.Unmarshal(in.Bytes(), &resp); err != nil {
			continue
		}
		a.mu.Lock()
		ch := a.pend[resp.ID]
		delete(a.pend, resp.ID)
		a.mu.Unlock()
		if ch != nil {
			ch <- resp
		}
	}
	err := in.Err()
	if err == nil {
		err = fmt.Errorf("agent %s: connection closed", a.addr)
	}
	a.mu.Lock()
	a.broken = err
	pend := a.pend
	a.pend = make(map[int64]chan distCtrlResp)
	a.mu.Unlock()
	for _, ch := range pend { //brisa:orderinvariant failing every pending call; order immaterial
		ch <- distCtrlResp{Err: err.Error()}
	}
}

// call sends one request and waits for its response; an agent that
// refuses the request is an error.
func (a *agentConn) call(ctx context.Context, req distCtrlReq) (distCtrlResp, error) {
	ch := make(chan distCtrlResp, 1)
	a.mu.Lock()
	if a.broken != nil {
		err := a.broken
		a.mu.Unlock()
		return distCtrlResp{}, err
	}
	a.next++
	req.ID = a.next
	a.pend[req.ID] = ch
	a.mu.Unlock()

	raw, err := json.Marshal(req)
	if err != nil {
		return distCtrlResp{}, err
	}
	raw = append(raw, '\n')
	a.sendMu.Lock()
	_, err = a.conn.Write(raw)
	a.sendMu.Unlock()
	if err != nil {
		a.mu.Lock()
		delete(a.pend, req.ID)
		a.mu.Unlock()
		return distCtrlResp{}, fmt.Errorf("agent %s: %w", a.addr, err)
	}
	select {
	case resp := <-ch:
		if !resp.OK {
			return resp, fmt.Errorf("agent %s: %s", a.addr, resp.Err)
		}
		return resp, nil
	case <-ctx.Done():
		a.mu.Lock()
		delete(a.pend, req.ID)
		a.mu.Unlock()
		return distCtrlResp{}, ctx.Err()
	}
}

// workerCmd relays one command to a worker process through its agent and
// decodes the worker's response; a worker that refuses the command is an
// error.
func (a *agentConn) workerCmd(ctx context.Context, worker int, cmd distWorkerCmd) (distWorkerResp, error) {
	raw, err := json.Marshal(cmd)
	if err != nil {
		return distWorkerResp{}, err
	}
	resp, err := a.call(ctx, distCtrlReq{Op: "cmd", Worker: worker, Req: raw})
	if err != nil {
		return distWorkerResp{}, err
	}
	var wr distWorkerResp
	if err := json.Unmarshal(resp.Resp, &wr); err != nil {
		return distWorkerResp{}, fmt.Errorf("agent %s: bad worker response: %w", a.addr, err)
	}
	if !wr.OK {
		return wr, fmt.Errorf("%s", wr.Err)
	}
	return wr, nil
}

func (a *agentConn) close() {
	a.conn.Close()
}
