package main

import (
	"math/rand"
	"testing"
)

// TestTracedLiveSegmentCountsMeasuredPhaseOnly runs one traced live segment
// on a steady tree and checks that its layer counters cover the measured
// phase only. Closing the cluster stops the nodes one by one, and the ones
// still running see their neighbours go: at least nodes−1 ConnDown events,
// since the overlay is connected. A steady tree makes a few at most: the
// first passive-view shuffles, due 2.5 s after a node starts at the
// earliest, open and close short-lived connections. So that many would be
// teardown leaking in.
func TestTracedLiveSegmentCountsMeasuredPhaseOnly(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a live cluster for a few seconds")
	}
	s := liveShape{nodes: 12, rate: 100, payload: 64, warmup: 10}
	seg, err := liveSegmentRun(s, 2, true, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if seg.incomplete != 0 {
		t.Fatalf("%d of %d messages were not delivered everywhere", seg.incomplete, seg.msgs)
	}
	if n := seg.layers.conns.n; n >= int64(s.nodes-1) {
		t.Errorf("counted %d connection events on a steady tree of %d nodes", n, s.nodes)
	}
	if n := seg.pm.ParentsLost + seg.pm.SoftRepairs + seg.pm.HardRepairs; n != 0 {
		t.Errorf("counted %d lost parents and repairs on a steady tree", n)
	}
	if got, want := seg.layers.coreData.n, int64(seg.deliveries); got < want {
		t.Errorf("traced %d data receptions for %d deliveries", got, want)
	}
	// One recorded data frame per receiver, one keep-alive per node.
	if got, want := len(seg.frames.data), s.nodes-1; got != want {
		t.Errorf("recorded %d data frames, want one per receiver (%d)", got, want)
	}
	if got, want := len(seg.frames.keepalive), s.nodes; got != want {
		t.Errorf("recorded %d keep-alive frames, want one per node (%d)", got, want)
	}
}
