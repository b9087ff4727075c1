package experiments

import (
	"math/rand"
	"sync"
	"time"

	brisa "repro"
	"repro/internal/baselines/simplegossip"
	"repro/internal/baselines/simpletree"
	"repro/internal/baselines/tag"
	"repro/internal/ids"
	"repro/internal/node"
	"repro/internal/simnet"
)

// sysParams is the common workload of the §III-D comparison runs. All four
// systems run in the same environment: cluster latencies plus the shared-
// host contention model (per-message CPU service time), which is what makes
// duplicate-heavy protocols pay in the paper's Table II.
type sysParams struct {
	Nodes   int
	Msgs    int
	Payload int
	Seed    int64
	Latency simnet.LatencyModel
	Proc    func(*rand.Rand) time.Duration
}

// sysResult is what each system runner reports.
type sysResult struct {
	// StabMB / DissMB: average per-node bytes *sent* during the
	// stabilization and dissemination phases, in MB (Figure 12).
	StabMB, DissMB float64
	// Latency: average over nodes of (last delivery − first delivery)
	// (Table II).
	Latency time.Duration
	// MeanDelay: average publish-to-delivery delay per message.
	MeanDelay time.Duration
	// Completeness: fraction of nodes that delivered every message.
	Completeness float64
	// Delivered: total deliveries (sanity).
	Delivered uint64
}

// deliveryTracker records the first and last delivery instant per node and
// the summed publish-to-delivery delay. record runs on scheduler shard
// goroutines (the simulator defaults to one shard per CPU), so the maps are
// mutex-guarded, and each delivery is stamped with the delivering node's own
// clock: the network's driver clock only advances at shard barriers, so
// reading it from a shard goroutine gives stale, worker-count-dependent
// instants.
type deliveryTracker struct {
	mu          sync.Mutex
	first, last map[ids.NodeID]time.Time
	pubAt       map[uint32]time.Time
	delaySum    time.Duration
}

func newDeliveryTracker() *deliveryTracker {
	return &deliveryTracker{
		first: make(map[ids.NodeID]time.Time),
		last:  make(map[ids.NodeID]time.Time),
		pubAt: make(map[uint32]time.Time),
	}
}

// published records a message's injection time, read from the driver clock
// by the driver callback that publishes.
func (d *deliveryTracker) published(seq uint32, t time.Time) {
	d.mu.Lock()
	d.pubAt[seq] = t
	d.mu.Unlock()
}

// record books one delivery at instant t of the delivering node's clock.
// The driver books each publish before any node can receive it, so pubAt
// has seq.
func (d *deliveryTracker) record(id ids.NodeID, seq uint32, t time.Time) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, ok := d.first[id]; !ok {
		d.first[id] = t
	}
	d.last[id] = t
	d.delaySum += t.Sub(d.pubAt[seq])
}

// phaseMB averages per-node sent bytes for a phase, in MB.
func phaseMB(net *simnet.Network, nodes []ids.NodeID, phase simnet.Phase) float64 {
	var total uint64
	for _, id := range nodes {
		u := net.Usage(id)
		total += u.UpBytes[phase][0] + u.UpBytes[phase][1]
	}
	if len(nodes) == 0 {
		return 0
	}
	return float64(total) / float64(len(nodes)) / (1 << 20)
}

// runSystemBrisa runs the shared §III-D workload through the declarative
// scenario runner: the traffic probe yields the per-phase byte averages and
// the latency probe yields completeness, per-message delay and the
// first-to-last delivery spread that the paper calls dissemination latency.
func runSystemBrisa(p sysParams) sysResult {
	rep := mustRun(brisa.Scenario{
		Name: "table2 BRISA",
		Seed: p.Seed,
		Topology: brisa.Topology{
			Nodes:           p.Nodes,
			Latency:         p.Latency,
			ProcessingDelay: p.Proc,
			Peer:            brisa.Config{Mode: brisa.ModeTree, ViewSize: 4},
		},
		Workloads: []brisa.Workload{
			{Stream: Stream, Messages: p.Msgs, Payload: p.Payload},
		},
		Probes: []brisa.Probe{brisa.ProbeLatency, brisa.ProbeTraffic},
		Drain:  20 * time.Second,
	})
	s := rep.Stream(Stream)
	return sysResult{
		StabMB:       rep.Traffic.StabMB,
		DissMB:       rep.Traffic.DissMB,
		Latency:      time.Duration(s.Spread.Mean() * float64(time.Second)),
		MeanDelay:    time.Duration(s.Delays.Mean() * float64(time.Second)),
		Completeness: s.Reliability,
		Delivered:    uint64(s.Delays.Len()),
	}
}

// baselinePeer is what the harness needs of a baseline system's peer.
type baselinePeer interface {
	Handler() node.Handler
	Publish(brisa.StreamID, []byte) uint32
	DeliveredCount(brisa.StreamID) uint64
	// Now is the peer's own clock, read in its delivery hook.
	Now() time.Time
}

// baseline states one §III-D baseline system as data for the harness.
type baseline[P baselinePeer] struct {
	// newPeer builds the peer with id self, which must call deliver for
	// each new delivery.
	newPeer func(self ids.NodeID, deliver func(brisa.StreamID, uint32, []byte)) P
	// join starts the join of peer i (i ≥ 1), given the network's driver
	// random stream at join time.
	join func(p P, i int, rng *rand.Rand)
	// spacing separates successive joins; settle runs after the last one.
	spacing, settle time.Duration
	// drain is how long to run after the last of msgs publishes.
	drain func(msgs int) time.Duration
	// allDissemination books all traffic as dissemination.
	allDissemination bool
}

// harness is one simulated deployment of a baseline system: peers[i] is
// node i+1, and node 1 is the source.
type harness[P baselinePeer] struct {
	sys   baseline[P]
	net   *simnet.Network
	peers []P
	tr    *deliveryTracker
}

// newHarness builds the network, adds p.Nodes peers and schedules their
// joins. The caller closes h.net.
func newHarness[P baselinePeer](sys baseline[P], p sysParams) *harness[P] {
	h := &harness[P]{
		sys: sys,
		net: simnet.New(simnet.Options{Seed: p.Seed, Latency: p.Latency, ProcessingDelay: p.Proc}),
		tr:  newDeliveryTracker(),
	}
	for range p.Nodes {
		h.add()
	}
	for i, peer := range h.peers[1:] {
		h.net.At(time.Duration(i+1)*sys.spacing, func() { sys.join(peer, i+1, h.net.Rand()) })
	}
	return h
}

// add builds the next peer and adds it to the network.
func (h *harness[P]) add() (ids.NodeID, P) {
	self := ids.NodeID(len(h.peers) + 1)
	var peer P
	peer = h.sys.newPeer(self, func(_ brisa.StreamID, seq uint32, _ []byte) {
		h.tr.record(self, seq, peer.Now())
	})
	h.peers = append(h.peers, peer)
	h.net.AddNode(self, peer.Handler())
	return self, peer
}

// stabilize runs until the settle period after the last join is over.
func (h *harness[P]) stabilize() {
	h.net.RunUntil(time.Duration(len(h.peers))*h.sys.spacing + h.sys.settle)
}

// publish paces msgs messages of payload bytes from node 1 at the paper's
// rate, starting now.
func (h *harness[P]) publish(msgs, payload int) {
	for i := range msgs {
		h.net.After(time.Duration(i)*MessageInterval, func() {
			seq := h.peers[0].Publish(Stream, make([]byte, payload))
			h.tr.published(seq, h.net.Now())
		})
	}
}

// runBaseline runs the shared §III-D workload on one baseline system.
func runBaseline[P baselinePeer](sys baseline[P], p sysParams) sysResult {
	h := newHarness(sys, p)
	defer h.net.Close()
	h.stabilize()
	h.net.SetPhase(simnet.PhaseDissemination)
	h.publish(p.Msgs, p.Payload)
	h.net.RunFor(time.Duration(p.Msgs)*MessageInterval + sys.drain(p.Msgs))

	nodes := h.net.NodeIDs()[1:] // all but the source: no node crashed
	res := sysResult{
		StabMB: phaseMB(h.net, nodes, simnet.PhaseStabilization),
		DissMB: phaseMB(h.net, nodes, simnet.PhaseDissemination),
	}
	if sys.allDissemination {
		res.StabMB, res.DissMB = 0, res.StabMB+res.DissMB
	}
	var spread time.Duration
	spreadN, complete := 0, 0
	for _, id := range nodes {
		n := h.peers[id-1].DeliveredCount(Stream)
		res.Delivered += n
		if n == uint64(p.Msgs) {
			complete++
		}
		if n > 1 {
			spread += h.tr.last[id].Sub(h.tr.first[id])
			spreadN++
		}
	}
	if spreadN > 0 {
		res.Latency = spread / time.Duration(spreadN)
	}
	if res.Delivered > 0 {
		res.MeanDelay = h.tr.delaySum / time.Duration(res.Delivered)
	}
	res.Completeness = float64(complete) / float64(len(nodes))
	return res
}

// simpleTree is the §III-D(b) efficiency baseline: a joiner asks the
// coordinator, node 1, for a parent.
var simpleTree = baseline[*simpletree.Peer]{
	newPeer: func(self ids.NodeID, deliver func(brisa.StreamID, uint32, []byte)) *simpletree.Peer {
		return simpletree.New(self, 1, deliver)
	},
	join:    func(p *simpletree.Peer, _ int, _ *rand.Rand) { p.Join() },
	spacing: 50 * time.Millisecond,
	settle:  10 * time.Second,
	drain:   func(int) time.Duration { return 20 * time.Second },
}

// simpleGossip is the §III-D(a) robustness baseline on n nodes: a joiner
// seeds its Cyclon view with a random earlier node. The paper books all
// its traffic under dissemination, since the protocol builds no structure.
func simpleGossip(n int) baseline[*simplegossip.Peer] {
	return baseline[*simplegossip.Peer]{
		newPeer: func(_ ids.NodeID, deliver func(brisa.StreamID, uint32, []byte)) *simplegossip.Peer {
			return simplegossip.New(simplegossip.Config{
				Fanout:            simplegossip.FanoutFor(n),
				AntiEntropyPeriod: MessageInterval / 2, // double the creation frequency
				OnDeliver:         deliver,
			})
		},
		join: func(p *simplegossip.Peer, i int, rng *rand.Rand) {
			p.Join(ids.NodeID(rng.Intn(i) + 1))
		},
		spacing:          50 * time.Millisecond,
		settle:           20 * time.Second,
		drain:            func(int) time.Duration { return 30 * time.Second },
		allDissemination: true,
	}
}

// tagSystem is the §III-D(c) TAG baseline with peer config cfg: a joiner
// walks the list back from the source, node 1. Joins are sequential, since
// TAG's list is ordered by join time.
func tagSystem(cfg tag.Config) baseline[*tag.Peer] {
	return baseline[*tag.Peer]{
		newPeer: func(self ids.NodeID, deliver func(brisa.StreamID, uint32, []byte)) *tag.Peer {
			c := cfg
			c.Source, c.OnDeliver = 1, deliver
			return tag.New(self, c)
		},
		join:    func(p *tag.Peer, _ int, _ *rand.Rand) { p.Join() },
		spacing: 100 * time.Millisecond,
		settle:  15 * time.Second,
		// TAG's one-item pulls drain slower than the injection rate; allow
		// the backlog to flush (the Table II effect).
		drain: func(msgs int) time.Duration { return time.Duration(msgs)*400*time.Millisecond + 60*time.Second },
	}
}

// systemRunners maps the §III-D system names to their runners, in the
// paper's presentation order.
func systemRunners() []struct {
	name string
	run  func(sysParams) sysResult
} {
	return []struct {
		name string
		run  func(sysParams) sysResult
	}{
		{"SimpleTree", func(p sysParams) sysResult { return runBaseline(simpleTree, p) }},
		{"BRISA tree, view 4", runSystemBrisa},
		{"SimpleGossip", func(p sysParams) sysResult { return runBaseline(simpleGossip(p.Nodes), p) }},
		{"TAG, view 4", func(p sysParams) sysResult {
			return runBaseline(tagSystem(tag.Config{PullPeriod: 400 * time.Millisecond, MaxItemsPerPull: 1}), p)
		}},
	}
}
