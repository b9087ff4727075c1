package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sync/atomic"
	"time"

	brisa "repro"
	"repro/internal/livenet"
)

// liveShape is one live workload: loopback TCP nodes in tree mode, one
// stream from node 0 fed by an open-loop generator at a fixed rate.
type liveShape struct {
	nodes   int
	rate    float64 // publishes per second
	payload int
	// warmup publishes that many messages at liveWarmInterval before the
	// measured phase, so the tree has emerged when the rate starts.
	// Publishing at full rate into a tree that has not emerged stalls the
	// stream in a share of runs (live-cold-250 reproduces it).
	warmup int
}

const (
	liveSegments = 5                     // fresh clusters per run; medians are over them
	liveDrainMax = 3 * time.Second       // wait for stragglers after the last due publish
	liveLead     = 20 * time.Millisecond // first publish is due this long after the generator starts

	liveWarmInterval = 100 * time.Millisecond
)

// recvLog records one node's deliveries: at[seq] is the monotonic time
// (nanotime) of the delivery, 0 while missing. at is written only on the
// node's actor and read after the node stopped; n is the progress counter
// the drain loop polls.
type recvLog struct {
	at []int64
	n  atomic.Int64
}

func (l *recvLog) deliver(_ brisa.StreamID, seq uint32, _ []byte) {
	if int(seq) < len(l.at) && l.at[seq] == 0 {
		l.at[seq] = nanotime()
		l.n.Add(1)
	}
}

// member is one live node as the benchmark drives it, built either through
// the public API (brisa.Listen) or, traced, from livenet and brisa.NewPeer.
type member struct {
	addr    string
	join    func(contact string) error
	publish func(payload []byte) uint32
	do      func(fn func(p *brisa.Peer))
	traffic func() brisa.WireTraffic
	close   func()
	log     *recvLog
	tr      *tracer    // nil when untraced
	hard    *[]float64 // hard-repair delays (ms), traced only
}

func (m *member) neighbors() int {
	var n int
	m.do(func(p *brisa.Peer) { n = len(p.Neighbors()) })
	return n
}

func (m *member) metrics() brisa.Metrics {
	var out brisa.Metrics
	m.do(func(p *brisa.Peer) { out = p.Metrics() })
	return out
}

// listenMember binds one node on loopback.
func listenMember(traced bool, msgs int) (*member, error) {
	log := &recvLog{at: make([]int64, msgs+1)}
	cfg := brisa.Config{Mode: brisa.ModeTree, OnDeliver: log.deliver}
	if !traced {
		n, err := brisa.Listen("127.0.0.1:0", cfg)
		if err != nil {
			return nil, err
		}
		return &member{
			addr:    n.Addr(),
			join:    func(contact string) error { return n.Join(contact) },
			publish: func(pl []byte) uint32 { return n.Publish(stream, pl) },
			do:      n.Do,
			traffic: n.Traffic,
			close:   func() { n.Close() },
			log:     log,
		}, nil
	}
	hard := new([]float64)
	cfg.OnEvent = hardRepairs(hard)
	ln, err := livenet.Listen(livenet.Config{Listen: "127.0.0.1:0"})
	if err != nil {
		return nil, err
	}
	p, err := brisa.NewPeer(ln.ID(), cfg)
	if err != nil {
		ln.Stop()
		return nil, err
	}
	tr := newTracer(p.Handler())
	if err := ln.Run(tr); err != nil {
		ln.Stop()
		return nil, err
	}
	m := &member{
		addr:    ln.Addr(),
		do:      func(fn func(p *brisa.Peer)) { ln.Call(func() { fn(p) }) },
		traffic: ln.Traffic,
		close:   ln.Stop,
		log:     log,
		tr:      tr,
		hard:    hard,
	}
	m.join = func(contact string) error { return joinVia(m, contact) }
	m.publish = func(pl []byte) uint32 {
		var seq uint32
		ln.Call(func() { seq = p.Publish(stream, pl) })
		return seq
	}
	return m, nil
}

// joinVia bootstraps a traced member through contact, as Node.Join does:
// retry until the overlay gives it an active neighbour.
func joinVia(m *member, contact string) error {
	id, err := brisa.ParseNodeID(contact)
	if err != nil {
		return err
	}
	for attempt := 0; attempt < 5; attempt++ {
		m.do(func(p *brisa.Peer) { p.Join(id) })
		for deadline := time.Now().Add(time.Second); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
			if m.neighbors() > 0 {
				return nil
			}
		}
	}
	return fmt.Errorf("join of %s via %s failed", m.addr, contact)
}

// liveCluster is a set of joined live nodes; node 0 is the source.
type liveCluster []*member

func (c liveCluster) close() {
	for _, m := range c {
		m.close()
	}
}

// liveSetup listens every node and joins each through a random earlier
// node (drawn from rng), then waits until every node has a neighbour.
func liveSetup(s liveShape, msgs int, traced bool, rng *rand.Rand) (liveCluster, error) {
	c := make(liveCluster, 0, s.nodes)
	for i := 0; i < s.nodes; i++ {
		m, err := listenMember(traced, msgs)
		if err != nil {
			c.close()
			return nil, err
		}
		c = append(c, m)
		if i > 0 {
			if err := m.join(c[rng.Intn(i)].addr); err != nil {
				c.close()
				return nil, err
			}
		}
	}
	// A node can lose its only neighbour to a later joiner's eviction while
	// its passive view is still empty, and then stays isolated. After a
	// second alone it joins again through the source (node 1 for the
	// source itself), as an operator would; each case is printed, so this
	// weakness of the overlay stays visible.
	deadline := time.Now().Add(5 * time.Second)
	for i, m := range c {
		alone := time.Now()
		for m.neighbors() == 0 {
			if time.Now().After(deadline) {
				c.close()
				return nil, fmt.Errorf("node %s has no neighbour after set-up", m.addr)
			}
			if time.Since(alone) > time.Second {
				contact := c[0].addr
				if i == 0 {
					contact = c[1].addr
				}
				fmt.Fprintf(os.Stderr, "setup: node %s has no neighbour, joining it again through %s\n", m.addr, contact)
				if err := m.join(contact); err != nil {
					c.close()
					return nil, err
				}
				alone = time.Now()
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	return c, nil
}

// genStats describe how the open-loop generator kept its schedule.
type genStats struct {
	late    []float64 // ms each publish started after its due time
	publish []float64 // µs each Publish call took
}

// openLoop publishes the payloads through publish, the i-th due at
// start+i*interval regardless of how long earlier publishes took, and
// expects the i-th publish to get sequence number first+i. It returns each
// publish's due time and how late the generator ran.
func openLoop(start int64, interval time.Duration, payloads [][]byte, first uint32, publish func([]byte) uint32) ([]int64, genStats, error) {
	due := make([]int64, len(payloads))
	g := genStats{late: make([]float64, 0, len(payloads)), publish: make([]float64, 0, len(payloads))}
	for i, pl := range payloads {
		due[i] = start + int64(i)*int64(interval)
		if wait := due[i] - nanotime(); wait > 0 {
			time.Sleep(time.Duration(wait))
		}
		t0 := nanotime()
		seq := publish(pl)
		t1 := nanotime()
		if want := first + uint32(i); seq != want {
			return nil, g, fmt.Errorf("publish %d got sequence %d", want, seq)
		}
		g.late = append(g.late, float64(t0-due[i])/1e6)
		g.publish = append(g.publish, float64(t1-t0)/1e3)
	}
	return due, g, nil
}

// liveSegment is what one cluster's set-up and measured phase produced, or,
// pooled, what a whole run produced.
type liveSegment struct {
	msgs       int
	deliveries uint64
	expected   uint64
	incomplete int // messages some node never delivered
	delays     []float64
	sent       uint64 // messages sent, every kind, frame headers included in bytes
	bytes      uint64
	cost       hostCost
	gen        genStats
	pm         brisa.Metrics // protocol counters summed over nodes, measured phase only
	// Traced runs only, measured phase only: the layer costs, hard-repair
	// delays (ms) and the frames the wire microbenchmarks replay.
	layers layerStats
	hard   []float64
	frames frameSet
}

// add pools o into s.
func (s *liveSegment) add(o *liveSegment) {
	s.msgs += o.msgs
	s.deliveries += o.deliveries
	s.expected += o.expected
	s.incomplete += o.incomplete
	s.delays = append(s.delays, o.delays...)
	s.sent += o.sent
	s.bytes += o.bytes
	s.cost.setup += o.cost.setup
	s.cost.wall += o.cost.wall
	s.cost.cpu += o.cost.cpu
	s.cost.mallocs += o.cost.mallocs
	s.cost.bytes += o.cost.bytes
	s.cost.gcs += o.cost.gcs
	s.gen.late = append(s.gen.late, o.gen.late...)
	s.gen.publish = append(s.gen.publish, o.gen.publish...)
	addMetrics(&s.pm, o.pm, brisa.Metrics{})
	s.layers.add(&o.layers)
	s.hard = append(s.hard, o.hard...)
	s.frames.add(o.frames)
}

// liveRun measures the workload on liveSegments fresh clusters, splitting
// the measured time between them, so one run sees several emerged trees
// and the reported medians are not one tree's shape or one stretch of host
// noise.
func liveRun(s liveShape, seed int64, seconds float64, traced bool) ([]*liveSegment, error) {
	rng := rand.New(rand.NewSource(seed))
	segs := make([]*liveSegment, 0, liveSegments)
	for k := 0; k < liveSegments; k++ {
		seg, err := liveSegmentRun(s, seconds/liveSegments, traced, rng)
		if err != nil {
			return nil, err
		}
		segs = append(segs, seg)
		runtime.GC()
	}
	return segs, nil
}

// liveSegmentRun sets up one cluster (timed), lets the stream's tree emerge
// under a gentle warm-up when the shape asks for one, and runs the
// open-loop measured phase for the given duration on it.
func liveSegmentRun(s liveShape, seconds float64, traced bool, rng *rand.Rand) (*liveSegment, error) {
	msgs := max(int(seconds*s.rate), 1)
	total := s.warmup + msgs
	payloads := make([][]byte, total)
	for i := range payloads {
		payloads[i] = make([]byte, s.payload)
		rng.Read(payloads[i])
	}
	seg := &liveSegment{msgs: msgs}
	t0 := time.Now()
	c, err := liveSetup(s, total, traced, rng)
	if err != nil {
		return nil, err
	}
	seg.cost.setup = time.Since(t0)
	defer c.close()

	if s.warmup > 0 {
		if _, _, err := openLoop(nanotime(), liveWarmInterval, payloads[:s.warmup], 1, c[0].publish); err != nil {
			return nil, err
		}
		c.drain(s.warmup)
	}
	m0 := make([]brisa.Metrics, len(c))
	var t0w brisa.WireTraffic
	for i, m := range c {
		m0[i] = m.metrics()
		t := m.traffic()
		t0w.MsgsOut += t.MsgsOut
		t0w.BytesOut += t.BytesOut
		if m.tr != nil {
			m.do(func(*brisa.Peer) { m.tr.reset(); *m.hard = (*m.hard)[:0] })
		}
	}
	runtime.GC()

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0, start := cpuTime(), nanotime()
	interval := time.Duration(float64(time.Second) / s.rate)
	due, gen, err := openLoop(start+int64(liveLead), interval, payloads[s.warmup:], uint32(s.warmup+1), c[0].publish)
	if err != nil {
		return nil, err
	}
	seg.gen = gen
	c.drain(total)
	seg.cost.wall, seg.cost.cpu = time.Duration(nanotime()-start), cpuTime()-cpu0
	runtime.ReadMemStats(&ms1)
	seg.cost.mallocs, seg.cost.bytes, seg.cost.gcs = ms1.Mallocs-ms0.Mallocs, ms1.TotalAlloc-ms0.TotalAlloc, ms1.NumGC-ms0.NumGC

	// Every counter is read here, before the cluster is closed: closing
	// stops the nodes one by one, and the ones still running see their
	// neighbours go and start repairs that are not part of the measurement.
	for i, m := range c {
		addMetrics(&seg.pm, m.metrics(), m0[i])
		t := m.traffic()
		seg.sent += t.MsgsOut
		seg.bytes += t.BytesOut
		if m.tr != nil {
			m.do(func(*brisa.Peer) {
				seg.layers.add(&m.tr.st)
				seg.hard = append(seg.hard, *m.hard...)
				seg.frames.add(m.tr.frames)
			})
		}
	}
	seg.sent -= t0w.MsgsOut
	seg.bytes -= t0w.BytesOut
	stallReport(c, total)
	c.close() // stops every actor, so the delivery logs are safe to read

	missing := make([]bool, msgs)
	for _, m := range c[1:] {
		for i := range due {
			if at := m.log.at[s.warmup+1+i]; at != 0 {
				seg.deliveries++
				seg.delays = append(seg.delays, float64(at-due[i])/1e6)
			} else {
				missing[i] = true
			}
		}
	}
	for _, miss := range missing {
		if miss {
			seg.incomplete++
		}
	}
	seg.expected = uint64(len(c)-1) * uint64(msgs)
	return seg, nil
}

// drain waits until every receiver delivered the first n messages, or
// liveDrainMax has passed.
func (c liveCluster) drain(n int) {
	deadline := nanotime() + int64(liveDrainMax)
	for _, m := range c[1:] {
		for m.log.n.Load() < int64(n) && nanotime() < deadline {
			time.Sleep(time.Millisecond)
		}
	}
}

// stallReport prints to standard error, for every node that missed
// deliveries, what a fix for the stall needs to reproduce it: how far the
// node got, where its gap starts, its parents and active view, and whether
// repair fired.
func stallReport(c liveCluster, msgs int) {
	for i, m := range c[1:] {
		got := m.log.n.Load()
		if got >= int64(msgs) {
			continue
		}
		var (
			parents           []brisa.NodeID
			active, gap, last int
			pm                brisa.Metrics
		)
		m.do(func(p *brisa.Peer) {
			parents, active, pm = p.Parents(stream), len(p.Neighbors()), p.Metrics()
			for seq := 1; seq <= msgs; seq++ {
				if m.log.at[seq] != 0 {
					last = seq
				} else if gap == 0 {
					gap = seq
				}
			}
		})
		fmt.Fprintf(os.Stderr, "stall: node %d (%s) delivered %d/%d first_missing %d last_seq %d parents %v active %d stall_repairs %d recovery_requests %d\n",
			i+1, m.addr, got, msgs, gap, last, parents, active, pm.StallRepairs, pm.RecoveryRequests)
	}
}
