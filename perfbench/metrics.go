package main

import (
	"fmt"
	"math"
	"sort"
)

// metricDef declares one reported metric: its name, unit and which way is
// better. The tables below are the single source the benchmark emits from;
// BENCHMARK.json at the repository root must list the same names and units,
// and the names and units must fit its format (metrics_test.go checks both).
type metricDef struct {
	Name, Unit, Better string
}

// e2eMetrics are reported by every untraced run (--trace 0). Each one is
// measured on every workload; where a metric's meaning differs between the
// simulated and the live runtime the comment says how.
var e2eMetrics = []metricDef{
	// Median set-up time: building and bootstrapping the cluster (sim), or
	// listening and joining every node (live). On simulated workloads it is
	// scaled to the nominal host speed, like cpu_us_per_delivery.
	{"setup_s", "s", "lower"},
	// Median wall time of the measured phase. On live workloads the
	// publish schedule fixes most of it; only the drain tail can move. On
	// simulated workloads it is scaled to the nominal host speed, like
	// cpu_us_per_delivery.
	{"wall_s", "s", "lower"},
	// Process user+sys CPU over the measured phase per delivery. Simulated
	// workloads are CPU-bound and their times follow the shared host's
	// speed, which drifts by a third over minutes: each repetition's time is
	// scaled to the nominal host speed by the benchmark's fixed reference
	// computation, timed just before and just after it (reference.go). Live
	// workloads are reported as measured: their CPU per delivery does not
	// follow the reference (scaled by it, its spread across ten runs grew
	// from about 0.05 of the median to 0.25), so scaling them would only add
	// the reference's noise. Every run's record keeps the measured times and
	// the reference times.
	{"cpu_us_per_delivery", "us", "lower"},
	// Process resident-set high-water mark.
	{"peak_rss_mb", "MB", "lower"},
	// Median publish→delivery delay: virtual time on sim, wall time from
	// the publish's due time on live. The tail percentiles are per-layer
	// metrics (delay.p90_ms, delay.p99_ms) without a bound: no one tail
	// percentile is steady on every workload. Across seeds the churn p90
	// falls either side of the hard-repair gap (3 to 160 ms), and on a
	// shared 2-CPU host the live p99 moved from 1.8 to 8.8 ms between runs.
	{"delay_p50_ms", "ms", "lower"},
	// Expected deliveries made over expected deliveries (1 − miss share).
	{"delivered_share", "ratio", "higher"},
	// Protocol messages sent (every kind) during the measured phase per
	// delivery: what each delivery costs the network. Duplicates, a part
	// of it, are the per-layer core.dups_per_delivery.
	{"msgs_per_delivery", "ratio", "lower"},
	// Bytes sent during the measured phase per delivery.
	{"bytes_per_delivery", "B", "lower"},
}

// layerMetrics are reported by every traced run (--trace 1). A layer a
// workload does not exercise reports 0 (simnet on live workloads; wire,
// livenet and the open-loop generator on simulated ones, where messages
// pass typed and are never encoded).
var layerMetrics = []metricDef{
	{"delay.samples", "count", "higher"},
	{"delay.p90_ms", "ms", "lower"},
	{"delay.p99_ms", "ms", "lower"},
	{"gen.late_p99_ms", "ms", "lower"},
	{"gen.late_max_ms", "ms", "lower"},
	{"gen.publish_us", "us", "lower"},
	{"go.allocs_per_delivery", "count", "lower"},
	{"go.alloc_bytes_per_delivery", "B", "lower"},
	{"go.gc_cycles", "count", "lower"},
	{"go.cpu_util", "ratio", "lower"},
	{"simnet.events", "count", "lower"},
	{"simnet.events_per_delivery", "ratio", "lower"},
	{"simnet.send_ns", "ns", "lower"},
	{"simnet.engine_cpu_ns_per_event", "ns", "lower"},
	{"simnet.handler_busy_share", "ratio", "higher"},
	{"node.timer_ns", "ns", "lower"},
	{"node.timers_per_delivery", "ratio", "lower"},
	{"core.data_ns", "ns", "lower"},
	{"core.data_per_delivery", "ratio", "lower"},
	{"core.control_ns", "ns", "lower"},
	{"core.control_per_delivery", "ratio", "lower"},
	{"core.dups_per_delivery", "ratio", "lower"},
	{"core.soft_repairs", "count", "lower"},
	{"core.hard_repairs", "count", "lower"},
	{"core.parents_lost", "count", "lower"},
	{"core.stall_repairs", "count", "lower"},
	{"core.recovery_requests", "count", "lower"},
	{"core.hard_repair_p50_ms", "ms", "lower"},
	{"hyparview.receive_ns", "ns", "lower"},
	{"hyparview.receives_per_delivery", "ratio", "lower"},
	{"hyparview.conn_events", "count", "lower"},
	{"wire.encode_ns.data", "ns", "lower"},
	{"wire.decode_ns.data", "ns", "lower"},
	{"wire.encode_ns.keepalive", "ns", "lower"},
	{"wire.decode_ns.keepalive", "ns", "lower"},
	{"wire.decode_allocs.data", "count", "lower"},
	{"livenet.send_us", "us", "lower"},
	{"livenet.sends_per_delivery", "ratio", "lower"},
	{"livenet.handler_us", "us", "lower"},
	{"trace.overhead_pct", "%", "lower"},
}

// metricValue is one reported value with its unit, as the result line
// carries it.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// emit checks that vals holds exactly the declared metrics, each finite,
// and attaches the units.
func emit(defs []metricDef, vals map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is not finite: %v", d.Name, v)
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	if len(vals) != len(defs) {
		var extra []string
		for name := range vals {
			if _, ok := out[name]; !ok {
				extra = append(extra, name)
			}
		}
		sort.Strings(extra)
		return nil, fmt.Errorf("undeclared metrics measured: %v", extra)
	}
	return out, nil
}
