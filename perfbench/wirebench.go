package main

import (
	"fmt"
	"runtime"
	"slices"

	"repro/internal/wire"
)

// wireSink keeps the decoded messages alive so the compiler cannot drop
// the calls being timed.
var wireSink wire.Message

const (
	wireBatch   = 50_000 // operations per timed batch
	wireBatches = 5      // batches per measurement; the median is reported
)

// frameSet holds frames recorded from a traced live run, one per receiving
// node and kind, of the kinds the wire microbenchmarks replay.
type frameSet struct{ data, keepalive [][]byte }

func (f *frameSet) add(o frameSet) {
	f.data = append(f.data, o.data...)
	f.keepalive = append(f.keepalive, o.keepalive...)
}

// timeBatches returns the median ns per operation over wireBatches batches.
func timeBatches(op func()) float64 {
	per := make([]float64, wireBatches)
	for b := range per {
		t0 := nanotime()
		for i := 0; i < wireBatch; i++ {
			op()
		}
		per[b] = float64(nanotime()-t0) / wireBatch
	}
	return median(per)
}

// wireMetrics microbenchmarks the public encode (AppendFrame into a reused
// buffer, as livenet's send path does) and decode (Unmarshal) functions on
// the recorded frames, plus the allocations one data-frame decode makes.
// Each batch cycles through every recorded frame of a kind, so the figures
// are for the workload's own mix of tree depths (data paths) and piggyback
// sizes. It also returns the recorded frame sizes, for the record.
func wireMetrics(f frameSet) (map[string]float64, map[string]any, error) {
	out := make(map[string]float64)
	sizes := make(map[string]any)
	buf := make([]byte, 0, 1024)
	for _, k := range []struct {
		name   string
		frames [][]byte
	}{{"data", f.data}, {"keepalive", f.keepalive}} {
		if len(k.frames) == 0 {
			return nil, nil, fmt.Errorf("wire: no %s frame was recorded", k.name)
		}
		msgs := make([]wire.Message, len(k.frames))
		lens := make([]float64, len(k.frames))
		for i, fr := range k.frames {
			m, err := wire.Unmarshal(fr)
			if err != nil {
				return nil, nil, fmt.Errorf("wire: recorded %s frame: %w", k.name, err)
			}
			msgs[i], lens[i] = m, float64(len(fr))
		}
		var e, d int
		out["wire.encode_ns."+k.name] = timeBatches(func() {
			buf = wire.AppendFrame(buf[:0], msgs[e])
			if e++; e == len(msgs) {
				e = 0
			}
		})
		out["wire.decode_ns."+k.name] = timeBatches(func() {
			wireSink, _ = wire.Unmarshal(k.frames[d])
			if d++; d == len(k.frames) {
				d = 0
			}
		})
		sizes[k.name] = map[string]any{"frames": len(lens), "bytes_p50": median(lens), "bytes_max": slices.Max(lens)}
		if k.name == "data" {
			var ms0, ms1 runtime.MemStats
			runtime.ReadMemStats(&ms0)
			for i := 0; i < wireBatch; i++ {
				wireSink, _ = wire.Unmarshal(k.frames[i%len(k.frames)])
			}
			runtime.ReadMemStats(&ms1)
			out["wire.decode_allocs.data"] = float64(ms1.Mallocs-ms0.Mallocs) / wireBatch
		}
	}
	return out, sizes, nil
}
