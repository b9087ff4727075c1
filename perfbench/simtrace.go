package main

import (
	"fmt"
	"runtime"
	"slices"
	"time"

	brisa "repro"
	"repro/internal/simnet"
	"repro/internal/trace"
)

// simJoinAttempts and simJoinWait mirror the simulated cluster's bootstrap
// retry policy for churned-in nodes. A mismatch would change the simulation,
// which the traced run's event-count check reports.
const (
	simJoinAttempts = 5
	simJoinWait     = 5 * time.Second
)

// tracedSim assembles a simulated cluster by hand — simnet.New with the
// options brisa.NewCluster would pass, brisa.NewPeer per node, each peer's
// handler wrapped in a tracer — and replays bootstrap, publishes and churn
// exactly as brisa.Cluster and brisa.Run do. The simulator is deterministic,
// so a faithful replay fires the same events and makes the same deliveries
// as the untraced run; the caller checks that it did.
type tracedSim struct {
	net     *simnet.Network
	peers   []*brisa.Peer
	tracers []*tracer
	// hard collects hard-repair recovery delays (ms) per peer; each slice
	// is appended only from its peer's shard.
	hard []*[]float64
}

func (ts *tracedSim) addPeer() *brisa.Peer {
	hard := new([]float64)
	ts.hard = append(ts.hard, hard)
	p, err := brisa.NewPeer(brisa.NodeID(len(ts.peers)+1), brisa.Config{Mode: brisa.ModeTree, OnEvent: hardRepairs(hard)})
	if err != nil {
		panic("perfbench: NewPeer: " + err.Error()) // the config is a constant
	}
	t := newTracer(p.Handler())
	ts.peers = append(ts.peers, p)
	ts.tracers = append(ts.tracers, t)
	ts.net.AddNode(p.ID(), t)
	return p
}

// aliveExcept returns the alive node ids other than self, in the
// simulator's order.
func (ts *tracedSim) aliveExcept(self brisa.NodeID) []brisa.NodeID {
	alive := ts.net.NodeIDs()
	return slices.DeleteFunc(alive, func(id brisa.NodeID) bool { return id == self })
}

// joinNew mirrors Cluster.JoinNew.
func (ts *tracedSim) joinNew() {
	p := ts.addPeer()
	cands := ts.aliveExcept(p.ID())
	if len(cands) == 0 {
		return
	}
	contact := cands[ts.net.Rand().Intn(len(cands))]
	ts.net.After(0, func() {
		if ts.net.Alive(p.ID()) {
			p.Join(contact)
		}
	})
	ts.retryJoin(p, simJoinAttempts)
}

func (ts *tracedSim) retryJoin(p *brisa.Peer, attempts int) {
	if attempts <= 0 {
		return
	}
	ts.net.After(simJoinWait, func() {
		if !ts.net.Alive(p.ID()) || len(p.Neighbors()) > 0 {
			return
		}
		cands := ts.aliveExcept(p.ID())
		if len(cands) == 0 {
			return
		}
		p.Join(cands[ts.net.Rand().Intn(len(cands))])
		ts.retryJoin(p, attempts-1)
	})
}

// crashRandom mirrors Cluster.CrashRandom with the source protected.
func (ts *tracedSim) crashRandom() {
	src := ts.peers[0].ID()
	cands := slices.DeleteFunc(ts.net.NodeIDs(), func(id brisa.NodeID) bool { return id == src })
	if len(cands) == 0 {
		return
	}
	ts.net.Crash(cands[ts.net.Rand().Intn(len(cands))])
}

// churnTarget adapts the traced cluster to the churn-script replayer.
type churnTarget struct{ ts *tracedSim }

func (c churnTarget) Join()     { c.ts.joinNew() }
func (c churnTarget) Fail()     { c.ts.crashRandom() }
func (c churnTarget) Size() int { return len(c.ts.net.NodeIDs()) }
func (c churnTarget) Stop()     {}

type churnSched struct{ net *simnet.Network }

func (c churnSched) At(offset time.Duration, fn func()) { c.net.At(c.net.Since()+offset, fn) }

// tracedRun is what a traced run measured.
type tracedRun struct {
	out    simOutcome
	cost   hostCost
	layers layerStats
	pm     brisa.Metrics // protocol counters summed over every peer
	hard   []float64     // hard-repair recovery delays, ms
}

// simTraced runs the workload once with every layer traced.
func simTraced(s simShape, seed int64) (*tracedRun, error) {
	var cost hostCost
	t0 := time.Now()
	ts := &tracedSim{net: simnet.New(simnet.Options{Seed: seed, Workers: s.workers})}
	defer ts.net.Close()
	for i := 0; i < s.nodes; i++ {
		ts.addPeer()
	}
	// Bootstrap, as Cluster.Bootstrap: one join per interval through a
	// random earlier peer, then stabilization.
	for i := 1; i < s.nodes; i++ {
		i := i
		ts.net.At(time.Duration(i)*s.joinEvery, func() {
			ts.peers[i].Join(ts.peers[ts.net.Rand().Intn(i)].ID())
		})
	}
	ts.net.RunUntil(time.Duration(s.nodes)*s.joinEvery + s.stabilize)
	cost.setup = time.Since(t0)
	setupEvents := ts.net.EventsFired()
	base := simCounts(ts.net, ts.peers, s.nodes, 0)
	for _, t := range ts.tracers {
		t.st = layerStats{}
	}
	runtime.GC()

	// The measured phase, as brisa.Run on a bootstrapped cluster: publishes,
	// then the churn script and the event Run schedules at the end of the
	// churn window (a metrics snapshot there, nothing here, but it counts).
	cpu0, t1 := cpuTime(), time.Now()
	ts.net.SetPhase(simnet.PhaseDissemination)
	src := ts.peers[0]
	for i := 0; i < s.messages; i++ {
		ts.net.After(time.Duration(i)*s.interval, func() {
			src.Publish(stream, make([]byte, s.payload))
		})
	}
	end := time.Duration(s.messages-1) * s.interval
	if s.churn != nil {
		script, err := trace.Parse(s.churn.Script)
		if err != nil {
			return nil, err
		}
		var window time.Duration
		for _, d := range script.Directives {
			window = max(window, d.To, d.At)
		}
		end = max(end, s.churn.Start+window)
		ts.net.After(s.churn.Start, func() {
			script.Replay(churnSched{ts.net}, churnTarget{ts})
		})
		ts.net.After(s.churn.Start+window, func() {})
	}
	total := end + s.drain
	for ran := time.Duration(0); ran < total; ran += time.Second {
		ts.net.RunFor(min(time.Second, total-ran))
	}
	cost.wall, cost.cpu = time.Since(t1), cpuTime()-cpu0

	o := simCounts(ts.net, ts.peers, s.nodes, uint64(s.messages))
	o.Bytes, o.Sent = o.Bytes-base.Bytes, o.Sent-base.Sent
	o.SetupEvents, o.Events = setupEvents, ts.net.EventsFired()-setupEvents
	tr := &tracedRun{out: o, cost: cost}
	for i, t := range ts.tracers {
		tr.layers.add(&t.st)
		tr.hard = append(tr.hard, *ts.hard[i]...)
		addMetrics(&tr.pm, ts.peers[i].Metrics(), brisa.Metrics{})
	}
	return tr, nil
}

// sameSimulation reports how a traced run's outcome differs from the
// untraced one in the counts both compute.
func sameSimulation(untraced, traced simOutcome) error {
	u, t := untraced, traced
	if u.SetupEvents != t.SetupEvents || u.Events != t.Events || u.Deliveries != t.Deliveries ||
		u.Made != t.Made || u.Expected != t.Expected || u.Dups != t.Dups || u.Sent != t.Sent || u.Bytes != t.Bytes {
		return fmt.Errorf("traced run simulated something else:\n  untraced %+v\n  traced   %+v", u, t)
	}
	return nil
}
