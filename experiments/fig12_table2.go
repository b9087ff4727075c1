package experiments

import (
	"fmt"
	"time"

	"repro/internal/simnet"
	"repro/internal/stats"
)

// RunFigure12 reproduces Figure 12: average per-node data transmitted (MB),
// split into stabilization and dissemination, for the four systems and
// payload sizes 0/1/10/20 KB on a 512-node network.
func RunFigure12(scale Scale, seed int64) TableResult {
	nodes := scale.apply(512, 64)
	msgs := scale.apply(500, 50)
	t := &stats.Table{Header: []string{
		"system", "payload", "stabilization MB", "dissemination MB", "total MB", "completeness",
	}}
	for _, kb := range []int{0, 1, 10, 20} {
		for _, sys := range systemRunners() {
			res := sys.run(figure12Params(scale, seed, kb))
			t.AddRow(
				sys.name,
				fmt.Sprintf("%d KB", kb),
				fmt.Sprintf("%.3f", res.StabMB),
				fmt.Sprintf("%.3f", res.DissMB),
				fmt.Sprintf("%.3f", res.StabMB+res.DissMB),
				fmt.Sprintf("%.0f%%", 100*res.Completeness),
			)
		}
	}
	return TableResult{
		Name: "Figure 12 — bandwidth usage per system (per-node averages)",
		Notes: fmt.Sprintf("nodes=%d messages=%d at 5/s (paper: 512/500)",
			nodes, msgs),
		Table: t,
	}
}

// RunTable2 reproduces Table II: dissemination latency — the time between
// the first and last delivered message, averaged over all nodes — for the
// four systems with 500 × 1 KB messages at 5/s (ideal: 99.8 s at full
// scale). Overheads are relative to SimpleTree, like the paper.
func RunTable2(scale Scale, seed int64) TableResult {
	nodes := scale.apply(512, 64)
	msgs := scale.apply(500, 50)
	t := &stats.Table{Header: []string{"protocol", "latency (s)", "overhead", "mean delay (ms)", "completeness"}}
	var baseline float64
	for _, sys := range systemRunners() {
		res := sys.run(table2Params(scale, seed))
		secs := res.Latency.Seconds()
		if sys.name == "SimpleTree" {
			baseline = secs
		}
		overhead := "-"
		if sys.name != "SimpleTree" && baseline > 0 {
			overhead = fmt.Sprintf("%+.0f%%", 100*(secs-baseline)/baseline)
		}
		t.AddRow(sys.name,
			fmt.Sprintf("%.3f", secs),
			overhead,
			fmt.Sprintf("%.1f", float64(res.MeanDelay.Milliseconds())),
			fmt.Sprintf("%.0f%%", 100*res.Completeness),
		)
	}
	return TableResult{
		Name: "Table II — dissemination latency",
		Notes: fmt.Sprintf("nodes=%d messages=%d×1KB at 5/s, ideal latency %.1fs (paper: 512/500, ideal 100s)",
			nodes, msgs, float64(msgs-1)*MessageInterval.Seconds()),
		Table: t,
	}
}

// figure12Params is Figure 12's workload for one payload size, in KB.
func figure12Params(scale Scale, seed int64, kb int) sysParams {
	return sysParams{Nodes: scale.apply(512, 64), Msgs: scale.apply(500, 50), Payload: kb * 1024, Seed: seed,
		Proc: simnet.LogNormalDelay(3*time.Millisecond, 1.0)}
}

// table2Params is Table II's workload: 1 KB messages under heavier
// per-message service times than Figure 12.
func table2Params(scale Scale, seed int64) sysParams {
	return sysParams{Nodes: scale.apply(512, 64), Msgs: scale.apply(500, 50), Payload: 1024, Seed: seed,
		Proc: simnet.LogNormalDelay(8*time.Millisecond, 1.0)}
}
