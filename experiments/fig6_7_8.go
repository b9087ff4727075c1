package experiments

import (
	"fmt"

	brisa "repro"
	"repro/internal/viz"
)

// structureConfigs are the four configurations of Figures 6 and 7.
func structureConfigs() []struct {
	name string
	mode brisa.Mode
	view int
} {
	return []struct {
		name string
		mode brisa.Mode
		view int
	}{
		{"tree, view=4", brisa.ModeTree, 4},
		{"tree, view=8", brisa.ModeTree, 8},
		{"DAG, 2 parents, view=4", brisa.ModeDAG, 4},
		{"DAG, 2 parents, view=8", brisa.ModeDAG, 8},
	}
}

// structureScenario is the common shape of the structure figures: a short
// stream lets the structure emerge and stabilize, and the structure probe
// captures it.
func structureScenario(nodes int, seed int64, mode brisa.Mode, view int, expansion float64) brisa.Scenario {
	return brisa.Scenario{
		Name: fmt.Sprintf("structure %v view=%d", mode, view),
		Seed: seed,
		Topology: brisa.Topology{
			Nodes: nodes,
			Peer: brisa.Config{
				Mode:            mode,
				Parents:         dagParents(mode, 2),
				ViewSize:        view,
				ExpansionFactor: expansion,
			},
		},
		Workloads: []brisa.Workload{
			{Stream: Stream, Messages: 25, Payload: 256},
		},
		Probes: []brisa.Probe{brisa.ProbeStructure},
		Drain:  MessageInterval * 25,
	}
}

// RunFigure6 reproduces Figure 6: the depth distribution (longest path from
// the source) for 512 nodes under the first-come first-picked strategy.
func RunFigure6(scale Scale, seed int64) FigureResult {
	nodes := scale.apply(512, 64)
	result := FigureResult{
		Name:  "Figure 6 — depth distribution",
		Notes: fmt.Sprintf("nodes=%d (paper: 512); first-come first-picked", nodes),
	}
	for _, cfg := range structureConfigs() {
		rep := mustRun(structureScenario(nodes, seed, cfg.mode, cfg.view, 2))
		result.Series = append(result.Series, Series{
			Name:   cfg.name,
			Points: rep.Stream(Stream).Depths.CDF(),
		})
	}
	return result
}

// RunFigure7 reproduces Figure 7: the degree distribution (number of
// outgoing structure links per node) for the same configurations.
func RunFigure7(scale Scale, seed int64) FigureResult {
	nodes := scale.apply(512, 64)
	result := FigureResult{
		Name:  "Figure 7 — degree distribution",
		Notes: fmt.Sprintf("nodes=%d (paper: 512); first-come first-picked", nodes),
	}
	for _, cfg := range structureConfigs() {
		rep := mustRun(structureScenario(nodes, seed, cfg.mode, cfg.view, 2))
		result.Series = append(result.Series, Series{
			Name:   cfg.name,
			Points: rep.Stream(Stream).Degrees.CDF(),
		})
	}
	return result
}

// Figure8Result carries the two DOT drawings of Figure 8.
type Figure8Result struct {
	Name       string
	DotView4   string
	DotView8   string
	StatsView4 string
	StatsView8 string
}

// String renders the summary stats and the DOT sources.
func (r Figure8Result) String() string {
	return "== " + r.Name + " ==\n" +
		"view=4: " + r.StatsView4 +
		"view=8: " + r.StatsView8 +
		"\n--- DOT (view=4) ---\n" + r.DotView4 +
		"\n--- DOT (view=8) ---\n" + r.DotView8
}

// RunFigure8 reproduces Figure 8: sample emerged trees for 100 nodes with
// HyParView view sizes 4 and 8 and expansion factor 1, as DOT drawings.
func RunFigure8(scale Scale, seed int64) Figure8Result {
	nodes := scale.apply(100, 40)
	result := Figure8Result{
		Name: fmt.Sprintf("Figure 8 — sample tree shapes (%d nodes, expansion factor 1)", nodes),
	}
	for _, view := range []int{4, 8} {
		rep := mustRun(structureScenario(nodes, seed, brisa.ModeTree, view, 1))
		s := rep.Stream(Stream)
		var edges []viz.Edge
		//brisa:orderinvariant viz.DOT sorts the edges in place, before TreeStats reads them
		for child, parents := range s.Parents {
			for _, par := range parents {
				edges = append(edges, viz.Edge{Parent: par, Child: child})
			}
		}
		dot := viz.DOT(fmt.Sprintf("brisa_tree_view%d", view), s.Source, edges)
		st := viz.TreeStats(s.Source, edges)
		if view == 4 {
			result.DotView4, result.StatsView4 = dot, st
		} else {
			result.DotView8, result.StatsView8 = dot, st
		}
	}
	return result
}
