package experiments

import (
	"fmt"
	"sync"
	"time"

	brisa "repro"
	tagproto "repro/internal/baselines/tag"
	"repro/internal/simnet"
)

// RunFigure13 reproduces Figure 13: the CDF of structure construction time
// for BRISA and TAG, on a cluster (512 nodes) and on PlanetLab (200 nodes).
//
// BRISA's metric: time from a node's first deactivation until all inbound
// links except one are deactivated (the construction probe). TAG's metric:
// time from starting the join traversal until the node settles its list
// position.
func RunFigure13(scale Scale, seed int64) FigureResult {
	clusterNodes := scale.apply(512, 64)
	plNodes := scale.apply(200, 48)
	result := FigureResult{
		Name: "Figure 13 — structure construction time",
		Notes: fmt.Sprintf("cluster nodes=%d, PlanetLab nodes=%d (paper: 512/200)",
			clusterNodes, plNodes),
	}

	brisaRun := func(nodes int, latency brisa.LatencyModel) *brisa.Dist {
		rep := mustRun(brisa.Scenario{
			Name: "fig13",
			Seed: seed,
			Topology: brisa.Topology{
				Nodes:   nodes,
				Latency: latency,
				Peer:    brisa.Config{Mode: brisa.ModeTree, ViewSize: 4},
			},
			Workloads: []brisa.Workload{
				{Stream: Stream, Messages: 25, Payload: 1024},
			},
			Probes: []brisa.Probe{brisa.ProbeConstruction},
			Drain:  10 * time.Second,
		})
		return rep.Stream(Stream).Construction
	}
	result.Series = append(result.Series,
		Series{Name: "Brisa, cluster", Points: brisaRun(clusterNodes, brisa.ClusterLatency()).CDF(24)},
		Series{Name: "Tag, cluster", Points: tagSettleTimes(clusterNodes, seed, simnet.Cluster()).CDF(24)},
		Series{Name: "Brisa, PlanetLab", Points: brisaRun(plNodes, brisa.PlanetLab()).CDF(24)},
		Series{Name: "Tag, PlanetLab", Points: tagSettleTimes(plNodes, seed, simnet.PlanetLab()).CDF(24)},
	)
	return result
}

// RunFigure14 reproduces Figure 14: the CDF of parent recovery delays for
// hard repairs under 3%/min continuous churn on a 128-node network with
// view size 4, BRISA tree vs TAG.
func RunFigure14(scale Scale, seed int64) FigureResult {
	nodes := scale.apply(128, 48)
	window := figure14Window(scale)
	result := FigureResult{
		Name: "Figure 14 — parent recovery delays (hard repairs)",
		Notes: fmt.Sprintf("nodes=%d, view 4, 3%%/min churn for %v (paper: 128, 10 min)",
			nodes, window),
	}

	// BRISA: hard-repair recovery delays come out of the churn scenario's
	// repairs probe.
	brisaOut := runChurn(nodes, seed, brisa.ModeTree, 3, window)
	result.Series = append(result.Series, Series{
		Name:   "BRISA tree",
		Points: brisaOut.HardDelays.CDF(24),
	})

	tagHard, _ := tagRepairDelays(nodes, seed, window)
	result.Series = append(result.Series, Series{
		Name:   "TAG",
		Points: tagHard.CDF(24),
	})
	return result
}

// figure14Window is how long Figure 14's churn runs: the paper's 10 min,
// scaled, but at least 2 min so a few churn rounds happen.
func figure14Window(scale Scale) time.Duration {
	window := time.Duration(float64(10*time.Minute) * float64(scale))
	if window < 2*time.Minute {
		window = 2 * time.Minute
	}
	return window
}

// tagSettleTimes is TAG's Figure 13 metric: each joiner's list-settle time
// on a freshly built and stabilized n-node deployment.
func tagSettleTimes(nodes int, seed int64, latency simnet.LatencyModel) *brisa.Dist {
	h := newHarness(tagSystem(tagproto.Config{}), sysParams{Nodes: nodes, Seed: seed, Latency: latency})
	defer h.net.Close()
	h.stabilize()
	s := &brisa.Dist{}
	for _, p := range h.peers[1:] {
		if d, ok := p.SettleTime(); ok {
			s.AddDuration(d)
		}
	}
	return s
}

// tagRepairDelays measures TAG's parent recovery delays under 3%/min churn
// over window, split into hard repairs (Figure 14's metric: re-insertions
// through the source after the list broke) and soft ones. OnRepair runs on
// simulator shard goroutines, hence the lock.
func tagRepairDelays(nodes int, seed int64, window time.Duration) (hard, soft *brisa.Dist) {
	hard, soft = &brisa.Dist{}, &brisa.Dist{}
	var mu sync.Mutex
	h := newHarness(tagSystem(tagproto.Config{
		OnRepair: func(isHard bool, d time.Duration) {
			mu.Lock()
			defer mu.Unlock()
			if isHard {
				hard.AddDuration(d)
			} else {
				soft.AddDuration(d)
			}
		},
	}), sysParams{Nodes: nodes, Seed: seed, Latency: simnet.Cluster()})
	defer h.net.Close()
	h.stabilize()
	// A continuous stream keeps pulls flowing.
	h.publish(int(window/MessageInterval)+100, 1024)
	// Churn: every 60s, fail 3% and join 3%. A victim is any alive node but
	// the source, which is never crashed and so always listed first; a
	// joiner starts its walk right after its Start event, unless churn
	// killed it first.
	for at := time.Duration(0); at < window; at += time.Minute {
		h.net.After(at, func() {
			k := int(float64(len(h.net.NodeIDs()))*0.03 + 0.5)
			for range k {
				victims := h.net.NodeIDs()[1:]
				h.net.Crash(victims[h.net.Rand().Intn(len(victims))])
				id, p := h.add()
				h.net.After(0, func() {
					if h.net.Alive(id) {
						p.Join()
					}
				})
			}
		})
	}
	h.net.RunFor(window + 30*time.Second)
	return hard, soft
}
