package main

import (
	"container/heap"
	"time"
)

// A host that is a share of a machine changes speed under the benchmark. On
// a shared 2-vCPU KVM guest (Intel Xeon) a fixed hashing loop took 0.17 to
// 0.33 s within one minute, and the median measured phase of sim-tree-w1
// moved from 2.3 to 3.8 s between runs within half an hour, past the bound
// a regression is judged by. For the simulated workloads, which are
// CPU-bound, the benchmark therefore times a fixed computation of its own —
// the reference — around every repetition and scales the repetition's
// set-up, wall and CPU times to the speed at which the reference takes
// refNominal: a slower host slows both, a slower program only the
// repetition. The reference touches nothing of the program, so no program
// change can move it. Live workloads are not scaled (metrics.go says why).
//
// Its work is of the kinds the simulator does: a priority queue of small
// heap objects (the event heap), map updates (peer and message state),
// short-lived allocations (messages) and dependent loads through a 4 MiB
// table (pointer-heavy state). It keeps under 8 MB live.

const (
	refTableLen = 1 << 20 // uint32s: 4 MiB
	refSteps    = 120_000 // heap operations per reference run
	refChase    = 8       // dependent loads per heap operation
	refKeys     = 1 << 16 // distinct map keys
	refQueue    = 4096    // queue length held
)

var refTable []uint32

// refEvent is one queued item: a key to order by and a small payload.
type refEvent struct {
	at  uint64
	buf []byte
}

type refHeap []*refEvent

func (h refHeap) Len() int           { return len(h) }
func (h refHeap) Less(i, j int) bool { return h[i].at < h[j].at }
func (h refHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)        { *h = append(*h, x.(*refEvent)) }
func (h *refHeap) Pop() any {
	old := *h
	e := old[len(old)-1]
	*h = old[:len(old)-1]
	return e
}

// refSink keeps the compiler from discarding the reference's work.
var refSink uint64

// splitmix64 advances *x and returns the next value of a fixed sequence.
func splitmix64(x *uint64) uint64 {
	*x += 0x9E3779B97F4A7C15
	z := *x
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// refInit builds the table as one random cycle (Sattolo), so the chase
// visits it in an order no prefetcher can follow.
func refInit() {
	refTable = make([]uint32, refTableLen)
	for i := range refTable {
		refTable[i] = uint32(i)
	}
	x := uint64(1)
	for i := refTableLen - 1; i > 0; i-- {
		j := splitmix64(&x) % uint64(i)
		refTable[i], refTable[j] = refTable[j], refTable[i]
	}
}

// refRun does the reference computation once.
func refRun() {
	if refTable == nil {
		refInit()
	}
	x, p, acc := uint64(7), uint32(0), uint64(0)
	m := make(map[uint64]uint32, refKeys)
	q := make(refHeap, 0, refQueue+1)
	for i := 0; i < refSteps; i++ {
		r := splitmix64(&x)
		for k := 0; k < refChase; k++ {
			p = refTable[p]
		}
		m[r%refKeys] += p
		heap.Push(&q, &refEvent{at: r ^ uint64(p), buf: make([]byte, 48)})
		if q.Len() > refQueue {
			e := heap.Pop(&q).(*refEvent)
			acc += e.at + uint64(len(e.buf))
		}
	}
	refSink += acc + uint64(len(m))
}

// refTime times one reference run; the first call also builds the table
// and warms the run up, untimed.
func refTime() time.Duration {
	if refTable == nil {
		refRun()
	}
	t0 := time.Now()
	refRun()
	return time.Since(t0)
}

// refNominal is the reference's time on the nominal host that scaled
// times refer to: about its median on a 2-vCPU Intel Xeon KVM guest.
const refNominal = 150 * time.Millisecond

// hostScale is the factor that takes a time measured between two reference
// runs to the nominal host: refNominal over the mean of the two.
func hostScale(before, after time.Duration) float64 {
	return refNominal.Seconds() / ((before + after).Seconds() / 2)
}
