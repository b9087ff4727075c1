package experiments

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	brisa "repro"
)

// Small scales keep the suite fast; shapes must already hold.

func TestFigure2ShapeDuplicatesGrowWithView(t *testing.T) {
	t.Parallel()
	r := RunFigure2(0.15, 1)
	if len(r.Series) != 4 {
		t.Fatalf("want 4 series, got %d", len(r.Series))
	}
	// Median duplicates must increase monotonically with view size.
	med := func(s Series) float64 {
		for _, p := range s.Points {
			if p.Pct >= 50 {
				return p.Value
			}
		}
		return s.Points[len(s.Points)-1].Value
	}
	prev := -1.0
	for _, s := range r.Series {
		m := med(s)
		t.Logf("%s: median dups/msg = %.2f", s.Name, m)
		if m < prev {
			t.Errorf("duplicates should grow with view size: %s has median %.2f < previous %.2f", s.Name, m, prev)
		}
		prev = m
	}
}

func TestFigure6ShapeLargerViewsAreShallower(t *testing.T) {
	t.Parallel()
	r := RunFigure6(0.2, 2)
	maxDepth := func(name string) float64 {
		for _, s := range r.Series {
			if s.Name == name {
				return s.Points[len(s.Points)-1].Value
			}
		}
		t.Fatalf("missing series %q", name)
		return 0
	}
	if maxDepth("tree, view=8") > maxDepth("tree, view=4") {
		t.Errorf("view 8 tree should not be deeper than view 4: %v vs %v",
			maxDepth("tree, view=8"), maxDepth("tree, view=4"))
	}
	// DAG depth measures the longest path, which the extra links stretch.
	if maxDepth("DAG, 2 parents, view=4") < maxDepth("tree, view=4") {
		t.Errorf("DAG max depth (%v) should be >= tree max depth (%v)",
			maxDepth("DAG, 2 parents, view=4"), maxDepth("tree, view=4"))
	}
}

func TestFigure7ShapeDAGsEngageMoreNodes(t *testing.T) {
	t.Parallel()
	r := RunFigure7(0.2, 3)
	leavesPct := func(name string) float64 {
		for _, s := range r.Series {
			if s.Name == name {
				if s.Points[0].Value == 0 {
					return s.Points[0].Pct
				}
				return 0
			}
		}
		t.Fatalf("missing series %q", name)
		return 0
	}
	// Fewer leaves (degree-0 nodes) in the DAG: more nodes contribute.
	if leavesPct("DAG, 2 parents, view=4") > leavesPct("tree, view=4") {
		t.Errorf("DAG should have fewer leaves: %.1f%% vs tree %.1f%%",
			leavesPct("DAG, 2 parents, view=4"), leavesPct("tree, view=4"))
	}
}

func TestFigure8ProducesDOT(t *testing.T) {
	t.Parallel()
	r := RunFigure8(0.5, 4)
	for _, dot := range []string{r.DotView4, r.DotView8} {
		if !strings.HasPrefix(dot, "digraph") || !strings.Contains(dot, "->") {
			t.Errorf("DOT output malformed:\n%s", dot[:min(len(dot), 200)])
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestFigure9ShapeFloodIsWorst(t *testing.T) {
	t.Parallel()
	r := RunFigure9(0.3, 5)
	med := map[string]float64{}
	for _, s := range r.Series {
		for _, p := range s.Points {
			if p.Pct >= 50 {
				med[s.Name] = p.Value
				break
			}
		}
	}
	t.Logf("medians: %v", med)
	if med["point-to-point"] > med["first-pick"] {
		t.Errorf("point-to-point (%.3f) should be the floor, below first-pick (%.3f)",
			med["point-to-point"], med["first-pick"])
	}
	if med["flood"] < med["first-pick"] {
		t.Errorf("flood (%.3f) should be slower than first-pick (%.3f) under load",
			med["flood"], med["first-pick"])
	}
}

func TestFigures10And11ShapeDAGDoublesDownload(t *testing.T) {
	t.Parallel()
	down, up := RunFigures10And11(0.15, 6)
	tree := down.Cells["tree, view=4"][10].P50
	dag := down.Cells["DAG, 2 parents, view=4"][10].P50
	t.Logf("download p50 at 10KB: tree=%.1f KB/s dag=%.1f KB/s", tree, dag)
	if dag < tree*1.5 {
		t.Errorf("DAG download (%.1f) should be ~2x tree (%.1f)", dag, tree)
	}
	// Upload grows with payload size for every configuration.
	for cfg, cells := range up.Cells {
		if cells[100].P50 < cells[1].P50 {
			t.Errorf("%s: upload p50 should grow with payload (1KB=%.1f, 100KB=%.1f)",
				cfg, cells[1].P50, cells[100].P50)
		}
	}
}

func TestTable1ShapeDAGHasFewOrphans(t *testing.T) {
	t.Parallel()
	nodes := 64
	out := map[brisa.Mode]churnOutcome{}
	for _, mode := range []brisa.Mode{brisa.ModeTree, brisa.ModeDAG} {
		out[mode] = runChurn(nodes, 7, mode, 5, 3*60*1e9)
	}
	tree, dag := out[brisa.ModeTree], out[brisa.ModeDAG]
	t.Logf("tree: lost/min=%.1f orphans/min=%.1f soft=%.0f%%", tree.ParentsLostPerMin, tree.OrphansPerMin, tree.SoftPct)
	t.Logf("dag:  lost/min=%.1f orphans/min=%.1f soft=%.0f%%", dag.ParentsLostPerMin, dag.OrphansPerMin, dag.SoftPct)
	if !tree.Complete || !dag.Complete {
		t.Error("survivors must stay connected to the stream")
	}
	// DAGs lose more parents (they hold more) but orphan far less often.
	// At test scale the loss rates are noisy, so allow a tolerance; the
	// full-scale run in EXPERIMENTS.md shows the clean ordering.
	if dag.ParentsLostPerMin < tree.ParentsLostPerMin*0.7 {
		t.Errorf("DAG should lose parents at a comparable-or-higher rate (%.2f vs %.2f)",
			dag.ParentsLostPerMin, tree.ParentsLostPerMin)
	}
	if dag.OrphansPerMin > tree.OrphansPerMin {
		t.Errorf("DAG should orphan less often (%.2f vs %.2f)",
			dag.OrphansPerMin, tree.OrphansPerMin)
	}
	// Repairs are dominated by the soft path (Table I: 79-95%).
	if tree.SoftPct < 50 {
		t.Errorf("tree soft repairs = %.0f%%, expected a majority", tree.SoftPct)
	}
}

func TestTable2ShapeOrdering(t *testing.T) {
	t.Parallel()
	// At 1/8 scale the per-message mean delay is noisy (a 64-node tree's
	// depth swings several CPU-service times seed to seed), so the shape
	// assertions run on seed-averaged metrics; completeness must hold on
	// every seed individually.
	seeds := []int64{1, 2, 3, 4, 5}
	lat := map[string]float64{}
	mean := map[string]float64{}
	for _, seed := range seeds {
		r := RunTable2(0.12, seed)
		for _, row := range r.Table.Rows {
			var v, m float64
			if _, err := sscanf(row[1], &v); err != nil {
				t.Fatalf("bad latency cell %q", row[1])
			}
			if _, err := sscanf(row[3], &m); err != nil {
				t.Fatalf("bad mean-delay cell %q", row[3])
			}
			lat[row[0]] += v / float64(len(seeds))
			mean[row[0]] += m / float64(len(seeds))
			if row[4] != "100%" {
				t.Errorf("%s completeness = %s at seed %d, want 100%%", row[0], row[4], seed)
			}
		}
	}
	t.Logf("seed-averaged latencies: %v", lat)
	t.Logf("seed-averaged mean delays (ms): %v", mean)
	if lat["BRISA tree, view 4"] < lat["SimpleTree"]*0.8 {
		t.Errorf("BRISA (%.2f) should be close to SimpleTree (%.2f), not far below", lat["BRISA tree, view 4"], lat["SimpleTree"])
	}
	// TAG's pull design roughly doubles the total dissemination time — the
	// paper's +100% row.
	if lat["TAG, view 4"] < lat["BRISA tree, view 4"]*1.2 {
		t.Errorf("TAG (%.2f) should be clearly slower than BRISA (%.2f): pull-based design", lat["TAG, view 4"], lat["BRISA tree, view 4"])
	}
	// SimpleGossip pays for duplicates in per-message delay (the last-first
	// metric is insensitive to it in simulation; see EXPERIMENTS.md).
	if mean["SimpleGossip"] < mean["BRISA tree, view 4"] {
		t.Errorf("SimpleGossip mean delay (%.1fms) should exceed BRISA's (%.1fms)",
			mean["SimpleGossip"], mean["BRISA tree, view 4"])
	}
}

func sscanf(s string, v *float64) (int, error) {
	var f float64
	n, err := fmtSscan(s, &f)
	*v = f
	return n, err
}

func TestFigure13ShapeTagSlowerOnPlanetLab(t *testing.T) {
	t.Parallel()
	r := RunFigure13(0.2, 9)
	med := map[string]float64{}
	for _, s := range r.Series {
		if len(s.Points) == 0 {
			t.Fatalf("series %q is empty", s.Name)
		}
		for _, p := range s.Points {
			if p.Pct >= 50 {
				med[s.Name] = p.Value
				break
			}
		}
	}
	t.Logf("construction time medians: %v", med)
	// The paper's headline: TAG is much slower than BRISA on PlanetLab
	// because its traversal serializes connection setups.
	if med["Tag, PlanetLab"] < med["Brisa, PlanetLab"] {
		t.Errorf("TAG on PlanetLab (%.3fs) should construct slower than BRISA (%.3fs)",
			med["Tag, PlanetLab"], med["Brisa, PlanetLab"])
	}
}

func TestFigure14ShapeBrisaRecoversFaster(t *testing.T) {
	t.Parallel()
	r := RunFigure14(0.3, 10)
	med := map[string]float64{}
	for _, s := range r.Series {
		if len(s.Points) == 0 {
			t.Logf("series %q has no hard repairs at this scale", s.Name)
			continue
		}
		for _, p := range s.Points {
			if p.Pct >= 50 {
				med[s.Name] = p.Value
				break
			}
		}
	}
	t.Logf("hard-repair recovery medians: %v", med)
	if b, okB := med["BRISA tree"]; okB {
		if tg, okT := med["TAG"]; okT && b > tg*2 {
			t.Errorf("BRISA hard repair (%.3fs) should not be much slower than TAG (%.3fs)", b, tg)
		}
	}
}

// fmtSscan is a tiny indirection so the test file needs no extra imports.
func fmtSscan(s string, f *float64) (int, error) {
	return fmt.Sscan(s, f)
}

func TestFaultSweepShapeReliabilityHolds(t *testing.T) {
	t.Parallel()
	r := RunFaultSweep(0.25, 1)
	if len(r.Table.Rows) != 5 {
		t.Fatalf("want 5 loss points, got %d", len(r.Table.Rows))
	}
	// Graceful degradation: reliability must stay high across the whole
	// sweep (gap recovery absorbs loss), and the injected-loss column must
	// grow strictly with the configured rate.
	prevLost := -1.0
	for _, row := range r.Table.Rows {
		var rel float64
		if _, err := fmtSscan(strings.TrimSuffix(row[1], "%"), &rel); err != nil {
			t.Fatalf("bad reliability cell %q: %v", row[1], err)
		}
		if rel < 95 {
			t.Errorf("reliability %.2f%% at loss %s, want >= 95%%", rel, row[0])
		}
		var lost float64
		if _, err := fmtSscan(row[6], &lost); err != nil {
			t.Fatalf("bad injected-lost cell %q: %v", row[6], err)
		}
		if lost <= prevLost {
			t.Errorf("injected losses should grow with the loss rate: %v then %v", prevLost, lost)
		}
		prevLost = lost
	}
}

// TestFigure6Deterministic reruns one Figure 6 configuration: the depth
// histogram must not depend on map iteration order, which decides which
// nodes get a depth when the captured parent links hold a cycle.
func TestFigure6Deterministic(t *testing.T) {
	t.Parallel()
	first := RunFigure6(0.05, 5).String()
	for i := 0; i < 2; i++ {
		if got := RunFigure6(0.05, 5).String(); got != first {
			t.Fatalf("run %d differs from run 0:\n%s\nvs\n%s", i+1, got, first)
		}
	}
}

// TestBaselineRunsReleaseWorkers runs the experiments that hold baseline
// systems and checks that no simulator worker goroutine outlives them. It is
// not parallel, because it counts the process's goroutines; the workers exit
// asynchronously once their network closes, hence the polling.
func TestBaselineRunsReleaseWorkers(t *testing.T) {
	before := runtime.NumGoroutine()
	RunTable2(0.05, 7)
	RunFigure12(0.05, 7)
	RunFigure13(0.05, 7)
	RunFigure14(0.05, 7)
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines before the runs, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}
