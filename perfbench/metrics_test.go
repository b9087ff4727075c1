package main

import (
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"testing"
	"time"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// validateDefs checks names, units and uniqueness of a metric table.
func validateDefs(defs []metricDef) error {
	seen := make(map[string]bool, len(defs))
	for _, d := range defs {
		if !nameRE.MatchString(d.Name) {
			return fmt.Errorf("metric name %q is not valid", d.Name)
		}
		if !unitRE.MatchString(d.Unit) {
			return fmt.Errorf("metric %s: unit %q is not valid", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			return fmt.Errorf("metric %s: better must be lower or higher, got %q", d.Name, d.Better)
		}
		if seen[d.Name] {
			return fmt.Errorf("metric %s declared twice", d.Name)
		}
		seen[d.Name] = true
	}
	return nil
}

func TestMetricDefsValid(t *testing.T) {
	for name, defs := range map[string][]metricDef{"end_to_end": e2eMetrics, "per_layer": layerMetrics} {
		if err := validateDefs(defs); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	for _, bad := range []metricDef{
		{"_leading", "s", "lower"},
		{"has space", "s", "lower"},
		{"ok", "unit with space", "lower"},
		{"ok", "s", "sideways"},
	} {
		if validateDefs([]metricDef{bad}) == nil {
			t.Errorf("validateDefs accepted %+v", bad)
		}
	}
	if validateDefs([]metricDef{{"a", "s", "lower"}, {"a", "s", "lower"}}) == nil {
		t.Error("validateDefs accepted a duplicate name")
	}
}

// benchmarkFile mirrors the fields of BENCHMARK.json the tables must agree
// with.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

// TestBenchmarkFileMatchesTables keeps BENCHMARK.json and the metric tables
// this program emits from in step.
func TestBenchmarkFileMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.EndToEnd) != len(e2eMetrics) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the program emits %d", len(bf.EndToEnd), len(e2eMetrics))
	}
	for i, m := range bf.EndToEnd {
		if d := e2eMetrics[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("end_to_end[%d] = %s %s %s, program emits %+v", i, m.Name, m.Unit, m.Better, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end_to_end %s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(bf.PerLayer) != len(layerMetrics) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the program emits %d", len(bf.PerLayer), len(layerMetrics))
	}
	for i, m := range bf.PerLayer {
		if d := layerMetrics[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per_layer[%d] = %s %s %s, program emits %+v", i, m.Name, m.Unit, m.Better, d)
		}
	}
	for _, w := range bf.Workloads {
		if _, err := lookup(w.Name); err != nil {
			t.Error(err)
		}
	}
}

func TestEmitRequiresExactSet(t *testing.T) {
	defs := []metricDef{{"a", "s", "lower"}, {"b", "ms", "lower"}}
	if _, err := emit(defs, map[string]float64{"a": 1}); err == nil {
		t.Error("emit accepted a missing metric")
	}
	if _, err := emit(defs, map[string]float64{"a": 1, "b": 2, "c": 3}); err == nil {
		t.Error("emit accepted an undeclared metric")
	}
	out, err := emit(defs, map[string]float64{"a": 1, "b": 2})
	if err != nil || out["b"] != (metricValue{2, "ms"}) {
		t.Errorf("emit = %v, %v", out, err)
	}
}

// small shrinks a workload so both of its measurement paths run in a test.
// Live shapes also get a warm-up and at most 250 msg/s: the test checks the
// metric sets, and a stalled stream leaves too few samples for a p99.
func small(w workload) workload {
	if w.sim != nil {
		s := *w.sim
		s.nodes, s.messages, s.stabilize, s.drain = 120, 40, 5*time.Second, 2*time.Second
		w.sim = &s
	} else {
		l := *w.live
		l.nodes, l.rate, l.warmup = 6, min(l.rate, 250), 10
		w.live = &l
	}
	return w
}

// liveTestSeconds gives the generator the 1000 publishes a p99 of its
// lateness needs at 250 msg/s. Simulated workloads run their minimum
// repetitions whatever the budget.
const liveTestSeconds = 4

// TestWorkloadsEmitDeclaredSets runs every workload, shrunk, untraced and
// traced, and checks that each emits exactly its declared metric set.
func TestWorkloadsEmitDeclaredSets(t *testing.T) {
	for _, w := range workloads {
		w := small(w)
		t.Run(w.name, func(t *testing.T) {
			for _, traced := range []bool{false, true} {
				defs, vals, _, err := measure(w, 7, liveTestSeconds, traced)
				if err != nil {
					t.Fatalf("traced=%v: %v", traced, err)
				}
				if _, err := emit(defs, vals); err != nil {
					t.Errorf("traced=%v: %v", traced, err)
				}
			}
		})
	}
}
