package main

import (
	"strings"
	"testing"
	"time"
)

func TestPctReportsCountAndRefusesThinTail(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted
	}
	v, n, err := pct(xs, 50)
	if err != nil || v != 50 || n != 100 {
		t.Errorf("pct(1..100, 50) = %v, %d, %v; want 50, 100, nil", v, n, err)
	}
	// p99 of 1000 samples has exactly 10 beyond it; of 999, only 9.
	ok := make([]float64, 1000)
	for i := range ok {
		ok[i] = float64(i + 1)
	}
	if v, n, err := pct(ok, 99); err != nil || v != 990 || n != 1000 {
		t.Errorf("pct(1..1000, 99) = %v, %d, %v; want 990, 1000, nil", v, n, err)
	}
	if _, n, err := pct(ok[:999], 99); err == nil || n != 999 || !strings.Contains(err.Error(), "9 samples beyond") {
		t.Errorf("pct(999 samples, 99) = _, %d, %v; want a refusal naming 9 samples beyond", n, err)
	}
	if _, _, err := pct(nil, 50); err == nil {
		t.Error("pct of no samples did not refuse")
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{{nil, 0}, {[]float64{3}, 3}, {[]float64{4, 1, 3}, 3}, {[]float64{4, 1, 3, 2}, 2.5}} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

// TestOpenLoopMeasuresFromDueTime injects a publish stall and checks that
// the generator keeps its schedule: later publishes stay due at their
// scheduled times (so a delivery's delay includes the wait the stall
// imposed) and their lateness is reported.
func TestOpenLoopMeasuresFromDueTime(t *testing.T) {
	const (
		interval = 5 * time.Millisecond
		stall    = 60 * time.Millisecond
		stalled  = 2 // the third publish blocks
	)
	payloads := make([][]byte, 10)
	var sentAt []int64
	seq := uint32(40)
	publish := func([]byte) uint32 {
		sentAt = append(sentAt, nanotime())
		if len(sentAt) == stalled+1 {
			time.Sleep(stall)
		}
		seq++
		return seq
	}
	start := nanotime() + int64(10*time.Millisecond)
	due, gen, err := openLoop(start, interval, payloads, 41, publish)
	if err != nil {
		t.Fatal(err)
	}
	for i := range payloads {
		if want := start + int64(i)*int64(interval); due[i] != want {
			t.Errorf("publish %d due at %d, want the schedule's %d", i, due[i], want)
		}
	}
	next := stalled + 1
	if late := time.Duration(sentAt[next] - due[next]); late < stall-2*interval {
		t.Errorf("publish after the stall was sent %v after its due time, want about %v", late, stall-interval)
	}
	if gen.late[next] < float64((stall-2*interval)/time.Millisecond) {
		t.Errorf("generator reported %.1f ms late after a %v stall", gen.late[next], stall)
	}
	if gen.publish[stalled] < float64(stall/time.Microsecond) {
		t.Errorf("stalled publish took %.0f µs, want at least %v", gen.publish[stalled], stall)
	}
	// A delivery made right when the post-stall publish went out is late by
	// the stall, not by zero.
	if d := float64(sentAt[next]-due[next]) / 1e6; d < gen.late[next]-1 {
		t.Errorf("delay from due time %.1f ms is below the reported lateness %.1f ms", d, gen.late[next])
	}

	if _, _, err := openLoop(nanotime(), interval, payloads[:2], 1, func([]byte) uint32 { return 7 }); err == nil {
		t.Error("openLoop accepted a publish that returned the wrong sequence number")
	}
}
