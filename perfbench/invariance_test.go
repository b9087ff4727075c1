package main

import (
	"context"
	"testing"
)

// TestWorkerCountInvariance runs the sim-tree-w2 scenario at 1 and 2
// workers: the simulation must be identical — events, deliveries, delay
// percentiles, duplicates and bytes. Only host costs may differ.
func TestWorkerCountInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full 3000-node workload twice")
	}
	w, err := lookup("sim-tree-w2")
	if err != nil {
		t.Fatal(err)
	}
	var outs [2]simOutcome
	for i, workers := range []int{1, 2} {
		s := *w.sim
		s.workers = workers
		if outs[i], _, err = simRun(context.Background(), s, 3); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
	}
	if outs[0] != outs[1] {
		t.Errorf("the simulation depends on the worker count:\n  w1 %+v\n  w2 %+v", outs[0], outs[1])
	}
}
