package main

import (
	"context"
	"fmt"
	"maps"
	"reflect"
	"runtime"
	"slices"

	brisa "repro"
)

// zeroLayers starts a per-layer value set with every metric at 0: a layer a
// workload does not exercise reports 0.
func zeroLayers() map[string]float64 {
	vals := make(map[string]float64, len(layerMetrics))
	for _, d := range layerMetrics {
		vals[d.Name] = 0
	}
	return vals
}

// addMetrics adds cur − base to dst, counter by counter.
func addMetrics(dst *brisa.Metrics, cur, base brisa.Metrics) {
	d, c, b := reflect.ValueOf(dst).Elem(), reflect.ValueOf(cur), reflect.ValueOf(base)
	for i := range d.NumField() {
		d.Field(i).SetUint(d.Field(i).Uint() + c.Field(i).Uint() - b.Field(i).Uint())
	}
}

// goLayer fills the Go runtime metrics from an untraced measured phase.
func goLayer(vals map[string]float64, c hostCost, deliveries uint64) {
	d := float64(deliveries)
	vals["go.allocs_per_delivery"] = float64(c.mallocs) / d
	vals["go.alloc_bytes_per_delivery"] = float64(c.bytes) / d
	vals["go.gc_cycles"] = float64(c.gcs)
	vals["go.cpu_util"] = c.cpu.Seconds() / c.wall.Seconds()
}

// protocolLayers fills the core and HyParView metrics from a traced run.
func protocolLayers(vals map[string]float64, tr *tracedRun, deliveries uint64) {
	d := float64(deliveries)
	st := &tr.layers
	vals["node.timer_ns"] = st.timers.meanNS()
	vals["node.timers_per_delivery"] = float64(st.timers.n) / d
	vals["core.data_ns"] = st.coreData.meanNS()
	vals["core.data_per_delivery"] = float64(st.coreData.n) / d
	vals["core.control_ns"] = st.coreControl.meanNS()
	vals["core.control_per_delivery"] = float64(st.coreControl.n) / d
	vals["core.dups_per_delivery"] = float64(tr.pm.Duplicates) / d
	vals["core.soft_repairs"] = float64(tr.pm.SoftRepairs)
	vals["core.hard_repairs"] = float64(tr.pm.HardRepairs)
	vals["core.parents_lost"] = float64(tr.pm.ParentsLost)
	vals["core.stall_repairs"] = float64(tr.pm.StallRepairs)
	vals["core.recovery_requests"] = float64(tr.pm.RecoveryRequests)
	vals["core.hard_repair_p50_ms"] = median(tr.hard)
	vals["hyparview.receive_ns"] = st.hyparview.meanNS()
	vals["hyparview.receives_per_delivery"] = float64(st.hyparview.n) / d
	vals["hyparview.conn_events"] = float64(st.conns.n)
}

// overheadPct is the traced run's CPU per delivery against the untraced
// run's, in percent.
func overheadPct(untraced, traced hostCost, uDeliveries, tDeliveries uint64) float64 {
	u := untraced.cpu.Seconds() / float64(uDeliveries)
	t := traced.cpu.Seconds() / float64(tDeliveries)
	return 100 * (t - u) / u
}

// simLayers runs the workload untraced (for the Go runtime metrics and the
// tracing reference) and then traced, checks that both simulated the same
// thing, and reports the per-layer metrics.
func simLayers(ctx context.Context, s simShape, seed int64) (map[string]float64, result, error) {
	res := result{Attempted: 2}
	ref, refCost, err := simRun(ctx, s, seed)
	if err == nil {
		err = s.check(ref)
	}
	if err != nil {
		res.Failed = 2
		return nil, res, err
	}
	runtime.GC()
	tr, err := simTraced(s, seed)
	if err == nil {
		err = sameSimulation(ref, tr.out)
	}
	if err != nil {
		res.Failed = 1
		return nil, res, err
	}
	vals := zeroLayers()
	d := float64(ref.Deliveries)
	vals["delay.samples"] = float64(ref.Samples)
	vals["delay.p90_ms"], vals["delay.p99_ms"] = ref.P90ms, ref.P99ms
	goLayer(vals, refCost, ref.Deliveries)
	protocolLayers(vals, tr, tr.out.Deliveries)
	st, c := &tr.layers, tr.cost
	vals["simnet.events"] = float64(tr.out.Events)
	vals["simnet.events_per_delivery"] = float64(tr.out.Events) / d
	vals["simnet.send_ns"] = st.sends.meanNS()
	vals["simnet.engine_cpu_ns_per_event"] = float64(c.cpu.Nanoseconds()-st.handlerNS) / float64(tr.out.Events)
	vals["simnet.handler_busy_share"] = float64(st.handlerNS) / (float64(c.wall.Nanoseconds()) * float64(s.workers))
	vals["trace.overhead_pct"] = overheadPct(refCost, c, ref.Deliveries, tr.out.Deliveries)
	res.Record = map[string]any{
		"untraced": ref, "traced": tr.out,
		"untraced_wall_s": refCost.wall.Seconds(), "traced_wall_s": c.wall.Seconds(),
	}
	return vals, res, nil
}

// liveTotals pools the segments of a live run; setups and walls keep each
// segment's set-up and measured-phase wall time.
type liveTotals struct {
	liveSegment
	setups, walls []float64
}

func pool(segs []*liveSegment) liveTotals {
	var t liveTotals
	for _, g := range segs {
		t.add(g)
		t.setups = append(t.setups, g.cost.setup.Seconds())
		t.walls = append(t.walls, g.cost.wall.Seconds())
	}
	return t
}

// record summarizes a pooled live run for the standard-error record.
func (t liveTotals) record() map[string]any {
	return map[string]any{
		"published": t.msgs, "deliveries": t.deliveries, "expected": t.expected,
		"incomplete_messages": t.incomplete, "delay_samples": len(t.delays),
		"setup_s": t.setups, "wall_s": t.walls,
	}
}

// liveE2E runs one live workload untraced and reports the end-to-end
// metrics: timings and per-delivery costs are medians over the segments,
// the delivered share pools them. Missed deliveries are counted, never
// retried or excluded.
func liveE2E(s liveShape, seed int64, seconds float64) (map[string]float64, result, error) {
	segs, err := liveRun(s, seed, seconds, false)
	if err != nil {
		return nil, result{Attempted: 1, Failed: 1}, err
	}
	t := pool(segs)
	res := result{Attempted: t.msgs, Failed: t.incomplete, Record: t.record()}
	var p50s, cpus, sent, bytes []float64
	for _, g := range segs {
		p50, _, err := pct(g.delays, 50)
		if err != nil {
			return nil, res, fmt.Errorf("delay: %w", err)
		}
		d := float64(g.deliveries)
		p50s = append(p50s, p50)
		cpus = append(cpus, g.cost.cpu.Seconds()*1e6/d)
		sent = append(sent, float64(g.sent)/d)
		bytes = append(bytes, float64(g.bytes)/d)
	}
	return map[string]float64{
		"setup_s":             median(t.setups),
		"wall_s":              median(t.walls),
		"cpu_us_per_delivery": median(cpus),
		"peak_rss_mb":         peakRSSMB(),
		"delay_p50_ms":        median(p50s),
		"delivered_share":     float64(t.deliveries) / float64(t.expected),
		"msgs_per_delivery":   median(sent),
		"bytes_per_delivery":  median(bytes),
	}, res, nil
}

// liveLayers runs the live workload untraced and then traced and reports
// the per-layer metrics, pooled over the segments.
func liveLayers(s liveShape, seed int64, seconds float64) (map[string]float64, result, error) {
	res := result{Attempted: 2}
	segs, err := liveRun(s, seed, seconds, false)
	if err != nil {
		res.Failed = 2
		return nil, res, err
	}
	ref := pool(segs)
	runtime.GC()
	if segs, err = liveRun(s, seed, seconds, true); err != nil {
		res.Failed = 1
		return nil, res, err
	}
	o := pool(segs)
	if ref.deliveries == 0 || o.deliveries == 0 {
		return nil, res, fmt.Errorf("no deliveries (untraced %d, traced %d)", ref.deliveries, o.deliveries)
	}
	vals := zeroLayers()
	vals["delay.samples"] = float64(len(ref.delays))
	for _, p := range []float64{90, 99} {
		if vals[fmt.Sprintf("delay.p%g_ms", p)], _, err = pct(ref.delays, p); err != nil {
			return nil, res, fmt.Errorf("delay: %w", err)
		}
	}
	late, _, err := pct(slices.Clone(o.gen.late), 99)
	if err != nil {
		return nil, res, fmt.Errorf("generator lateness: %w", err)
	}
	vals["gen.late_p99_ms"] = late
	vals["gen.late_max_ms"] = slices.Max(o.gen.late)
	vals["gen.publish_us"] = median(o.gen.publish)
	goLayer(vals, ref.cost, ref.deliveries)
	protocolLayers(vals, &tracedRun{cost: o.cost, layers: o.layers, pm: o.pm, hard: o.hard}, o.deliveries)
	st := &o.layers
	calls := st.coreData.n + st.coreControl.n + st.hyparview.n + st.timers.n + st.conns.n + st.other.n
	vals["livenet.send_us"] = st.sends.meanNS() / 1e3
	vals["livenet.sends_per_delivery"] = float64(st.sends.n) / float64(o.deliveries)
	if calls > 0 {
		vals["livenet.handler_us"] = float64(st.handlerNS) / float64(calls) / 1e3
	}
	vals["trace.overhead_pct"] = overheadPct(ref.cost, o.cost, ref.deliveries, o.deliveries)
	wm, frames, err := wireMetrics(o.frames)
	if err != nil {
		return nil, res, err
	}
	maps.Copy(vals, wm)
	res.Record = map[string]any{"untraced": ref.record(), "traced": o.record(), "wire_frames": frames}
	return vals, res, nil
}
