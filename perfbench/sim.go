package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	brisa "repro"
	"repro/internal/simnet"
)

// simShape is one simulated workload: a tree over a HyParView overlay, one
// stream from node 0, optional churn.
type simShape struct {
	nodes     int
	messages  int
	payload   int
	interval  time.Duration
	joinEvery time.Duration
	stabilize time.Duration
	drain     time.Duration
	workers   int
	churn     *brisa.Churn
	// noMisses makes any missed delivery a failed check: without churn the
	// tree must reach every node.
	noMisses bool
}

const stream brisa.StreamID = 1

func (s simShape) scenario(seed int64) brisa.Scenario {
	probes := []brisa.Probe{brisa.ProbeLatency, brisa.ProbeDuplicates}
	return brisa.Scenario{
		Name: "perfbench",
		Seed: seed,
		Topology: brisa.Topology{
			Nodes:         s.nodes,
			Peer:          brisa.Config{Mode: brisa.ModeTree},
			JoinInterval:  s.joinEvery,
			StabilizeTime: s.stabilize,
		},
		Workloads: []brisa.Workload{{
			Stream: stream, Source: 0, Messages: s.messages, Payload: s.payload, Interval: s.interval,
		}},
		Churn:  s.churn,
		Probes: probes,
		Drain:  s.drain,
	}
}

// simOutcome is everything a simulated run computes in virtual time. The
// simulator is deterministic, so for one seed it must repeat exactly — across
// repetitions, worker counts and the traced run.
type simOutcome struct {
	SetupEvents uint64  `json:"setup_events"`
	Events      uint64  `json:"events"`
	Deliveries  uint64  `json:"deliveries"`
	Expected    uint64  `json:"expected"` // deliveries owed to nodes present throughout
	Made        uint64  `json:"made"`     // of those, made
	Samples     int     `json:"delay_samples"`
	P50ms       float64 `json:"delay_p50_ms"`
	P90ms       float64 `json:"delay_p90_ms"`
	P99ms       float64 `json:"delay_p99_ms"`
	Dups        uint64  `json:"dups"`
	Sent        uint64  `json:"sent"` // messages, every kind
	Bytes       uint64  `json:"bytes"`
}

// hostCost is what one measured phase cost the host.
type hostCost struct {
	setup, wall, cpu time.Duration
	mallocs, bytes   uint64
	gcs              uint32
}

// simCounts reads the deterministic delivery, duplicate and traffic totals
// of a finished run on net. peers are every peer ever created, in creation
// order; the first initial of them were there before the measured phase.
func simCounts(net *simnet.Network, peers []*brisa.Peer, initial int, published uint64) simOutcome {
	var o simOutcome
	for i, p := range peers {
		u := net.Usage(p.ID())
		o.Bytes += u.TotalUp()
		for _, n := range u.UpMessages {
			o.Sent += n
		}
		o.Dups += p.Metrics().Duplicates
		if i == 0 { // the source
			continue
		}
		n := p.DeliveredCount(stream)
		o.Deliveries += n
		if i < initial && net.Alive(p.ID()) {
			o.Expected += published
			o.Made += min(n, published)
		}
	}
	return o
}

// simRun builds, bootstraps and runs one simulated workload through the
// public API: set-up is NewCluster plus Bootstrap, the measured phase is
// brisa.Run on the bootstrapped cluster.
func simRun(ctx context.Context, s simShape, seed int64) (simOutcome, hostCost, error) {
	var cost hostCost
	sc := s.scenario(seed)
	t0 := time.Now()
	c, err := brisa.SimRuntime{Workers: s.workers}.NewCluster(sc)
	if err != nil {
		return simOutcome{}, cost, err
	}
	defer c.Close()
	c.Bootstrap()
	cost.setup = time.Since(t0)
	setupEvents := c.Net.EventsFired()
	base := simCounts(c.Net, c.Peers(), s.nodes, 0)
	runtime.GC()

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0, t1 := cpuTime(), time.Now()
	rep, err := brisa.Run(ctx, brisa.SimRuntime{Cluster: c}, sc)
	cost.wall, cost.cpu = time.Since(t1), cpuTime()-cpu0
	runtime.ReadMemStats(&ms1)
	if err != nil {
		return simOutcome{}, cost, err
	}
	cost.mallocs, cost.bytes, cost.gcs = ms1.Mallocs-ms0.Mallocs, ms1.TotalAlloc-ms0.TotalAlloc, ms1.NumGC-ms0.NumGC

	sr := rep.Streams[0]
	o := simCounts(c.Net, c.Peers(), s.nodes, uint64(sr.Published))
	o.Bytes, o.Sent = o.Bytes-base.Bytes, o.Sent-base.Sent
	o.SetupEvents, o.Events = setupEvents, c.Net.EventsFired()-setupEvents
	o.Samples = sr.Delays.Len()
	if err := checkTail(o.Samples, 99); err != nil {
		return o, cost, fmt.Errorf("delay: %w", err)
	}
	o.P50ms = 1000 * sr.Delays.Percentile(50)
	o.P90ms = 1000 * sr.Delays.Percentile(90)
	o.P99ms = 1000 * sr.Delays.Percentile(99)
	return o, cost, nil
}

// check applies the output checks every simulated run must pass.
func (s simShape) check(o simOutcome) error {
	if o.Deliveries == 0 || o.Expected == 0 {
		return fmt.Errorf("no deliveries (%d made, %d expected)", o.Deliveries, o.Expected)
	}
	if s.noMisses && o.Made != o.Expected {
		return fmt.Errorf("missed %d of %d deliveries without churn", o.Expected-o.Made, o.Expected)
	}
	return nil
}

// simE2E runs the workload repeatedly — each repetition a full set-up and
// measured phase on the same seed — until the measured phases add up to
// seconds (at least minReps), checks that every repetition computed the
// same simulation, and reports medians. The reference is timed before the
// first repetition and after each one, and each repetition's set-up, wall
// and CPU times are reported at the nominal host speed (reference.go).
func simE2E(ctx context.Context, s simShape, seed int64, seconds float64) (map[string]float64, result, error) {
	const minReps, maxReps = 3, 20
	var (
		first                           simOutcome
		setups, walls, cpuPerD          []float64 // as measured
		refs, scaledSetups, scaledWalls []float64
		scaledCPUPer                    []float64
		measured                        time.Duration
		res                             result
	)
	before := refTime()
	refs = append(refs, before.Seconds())
	for r := 0; r < maxReps && (r < minReps || measured.Seconds() < seconds); r++ {
		o, cost, err := simRun(ctx, s, seed)
		res.Attempted++
		if err == nil {
			err = s.check(o)
		}
		if err == nil && r > 0 && o != first {
			err = fmt.Errorf("repetition %d diverged from repetition 0:\n  %+v\n  %+v", r, o, first)
		}
		if err != nil {
			res.Failed++
			return nil, res, err
		}
		if r == 0 {
			first = o
		}
		runtime.GC()
		after := refTime()
		scale := hostScale(before, after)
		measured += cost.wall
		cpu := cost.cpu.Seconds() * 1e6 / float64(o.Deliveries)
		setups = append(setups, cost.setup.Seconds())
		walls = append(walls, cost.wall.Seconds())
		cpuPerD = append(cpuPerD, cpu)
		refs = append(refs, after.Seconds())
		scaledSetups = append(scaledSetups, cost.setup.Seconds()*scale)
		scaledWalls = append(scaledWalls, cost.wall.Seconds()*scale)
		scaledCPUPer = append(scaledCPUPer, cpu*scale)
		before = after
	}
	res.Record = map[string]any{
		"outcome": first, "setup_s": setups, "wall_s": walls,
		"cpu_us_per_delivery": cpuPerD, "ref_s": refs,
	}
	return map[string]float64{
		"setup_s":             median(scaledSetups),
		"wall_s":              median(scaledWalls),
		"cpu_us_per_delivery": median(scaledCPUPer),
		"peak_rss_mb":         peakRSSMB(),
		"delay_p50_ms":        first.P50ms,
		"delivered_share":     float64(first.Made) / float64(first.Expected),
		"msgs_per_delivery":   float64(first.Sent) / float64(first.Deliveries),
		"bytes_per_delivery":  float64(first.Bytes) / float64(first.Deliveries),
	}, res, nil
}
