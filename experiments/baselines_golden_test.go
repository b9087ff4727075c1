package experiments

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	brisa "repro"
	"repro/internal/simnet"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/baselines.golden from the current baseline runners")

// baselinesGolden renders the §III-D baselines' raw results at one scale and
// seed: Table II and Figure 12 for SimpleTree, SimpleGossip and TAG, plus
// TAG's Figure 13 and 14 series. Figure 14's soft repairs are included too:
// at this scale TAG makes no hard ones, and the soft ones pin the churn
// path. BRISA rows come from the scenario runner and have goldens of their
// own, so they stay out.
func baselinesGolden(scale Scale, seed int64) string {
	var b strings.Builder
	for _, sys := range systemRunners() {
		if strings.HasPrefix(sys.name, "BRISA") {
			continue
		}
		fmt.Fprintf(&b, "table2 %s: %+v\n", sys.name, sys.run(table2Params(scale, seed)))
		for _, kb := range []int{0, 1, 10, 20} {
			fmt.Fprintf(&b, "fig12 %s %d KB: %+v\n", sys.name, kb, sys.run(figure12Params(scale, seed, kb)))
		}
	}
	hard, soft := tagRepairDelays(scale.apply(128, 48), seed, figure14Window(scale))
	series := []struct {
		name string
		dist *brisa.Dist
	}{
		{"fig13 Tag, cluster", tagSettleTimes(scale.apply(512, 64), seed, simnet.Cluster())},
		{"fig13 Tag, PlanetLab", tagSettleTimes(scale.apply(200, 48), seed, simnet.PlanetLab())},
		{"fig14 TAG", hard},
		{"fig14 TAG soft repairs", soft},
	}
	for _, s := range series {
		fmt.Fprintf(&b, "%s: n=%d %v\n", s.name, s.dist.Len(), s.dist.CDF(24))
	}
	return b.String()
}

// TestBaselinesGolden pins the baseline systems' results byte for byte.
// Regenerate with
//
//	go test -run TestBaselinesGolden -update-golden ./experiments
func TestBaselinesGolden(t *testing.T) {
	t.Parallel()
	got := baselinesGolden(0.05, 7)
	path := filepath.Join("testdata", "baselines.golden")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update-golden): %v", err)
	}
	if got != string(want) {
		t.Fatalf("baseline results diverged from %s\ngot:\n%s\nwant:\n%s", path, got, want)
	}
}
