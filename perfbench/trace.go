package main

import (
	"time"

	brisa "repro"
	"repro/internal/core"
	"repro/internal/hyparview"
	"repro/internal/ids"
	"repro/internal/node"
	"repro/internal/wire"
)

// The traced runs time calls into each layer from outside the program: a
// node.Handler wrapper around the peer's protocol stack times every callback
// the runtime makes, classified by the wire kind's owning layer, and hands
// the stack an Env wrapper that times Send and the timer callbacks. One
// tracer per node, touched only from that node's actor (its simulator shard
// or its live actor goroutine), so the counters need no locking; they are
// folded after the run.

// clock0 anchors nanotime on the monotonic clock.
var clock0 = time.Now()

func nanotime() int64 { return int64(time.Since(clock0)) }

// callStat counts calls and their self time.
type callStat struct{ n, ns int64 }

func (c *callStat) add(o callStat) { c.n += o.n; c.ns += o.ns }

// meanNS is the mean self time per call, 0 without calls.
func (c callStat) meanNS() float64 {
	if c.n == 0 {
		return 0
	}
	return float64(c.ns) / float64(c.n)
}

// layerStats is one node's (or, folded, the whole run's) traced cost.
type layerStats struct {
	coreData    callStat // core Receive of payload kinds, self time
	coreControl callStat // core Receive of control kinds, self time
	hyparview   callStat // HyParView Receive (piggyback handling included), self time
	timers      callStat // timer callbacks, self time
	conns       callStat // ConnUp, ConnDown
	other       callStat // Start, Stop, kinds no layer owns
	sends       callStat // Env.Send
	handlerNS   int64    // all callback time, nested sends included
}

func (s *layerStats) add(o *layerStats) {
	s.coreData.add(o.coreData)
	s.coreControl.add(o.coreControl)
	s.hyparview.add(o.hyparview)
	s.timers.add(o.timers)
	s.conns.add(o.conns)
	s.other.add(o.other)
	s.sends.add(o.sends)
	s.handlerNS += o.handlerNS
}

// kindLayer maps a wire kind to the layer that owns it.
var kindLayer = func() (t [256]uint8) {
	for _, k := range core.Kinds() {
		t[k] = layerCore
	}
	for _, k := range hyparview.Kinds() {
		t[k] = layerHyParView
	}
	return t
}()

const (
	layerOther uint8 = iota
	layerCore
	layerHyParView
)

// tracer wraps one node's handler.
type tracer struct {
	inner  node.Handler
	st     layerStats
	nested int64 // Send time inside the running callback
	// recording is set by reset; from then on the tracer keeps the first
	// data and keep-alive frame the node receives.
	recording bool
	frames    frameSet
}

func newTracer(h node.Handler) *tracer { return &tracer{inner: h} }

// reset starts a measured phase: it zeroes the counters and starts
// recording frames.
func (t *tracer) reset() {
	t.st, t.frames, t.recording = layerStats{}, frameSet{}, true
}

// record keeps an encoded copy of m if it is the first of its kind the
// wire microbenchmarks replay.
func (t *tracer) record(m wire.Message) {
	switch m.Kind() {
	case wire.KindData:
		if t.frames.data == nil {
			t.frames.data = [][]byte{wire.Marshal(m)}
		}
	case wire.KindKeepAlive:
		if t.frames.keepalive == nil {
			t.frames.keepalive = [][]byte{wire.Marshal(m)}
		}
	}
}

func (t *tracer) enter() int64 {
	t.nested = 0
	return nanotime()
}

func (t *tracer) exit(t0 int64, c *callStat) {
	d := nanotime() - t0
	t.st.handlerNS += d
	c.n++
	c.ns += d - t.nested
}

// Start implements node.Handler.
func (t *tracer) Start(env node.Env) {
	t0 := t.enter()
	t.inner.Start(&tracedEnv{Env: env, t: t})
	t.exit(t0, &t.st.other)
}

// Receive implements node.Handler.
func (t *tracer) Receive(from ids.NodeID, m wire.Message) {
	if t.recording {
		t.record(m)
	}
	t0 := t.enter()
	t.inner.Receive(from, m)
	c := &t.st.coreData
	switch k := m.Kind(); {
	case kindLayer[k] == layerHyParView:
		c = &t.st.hyparview
	case kindLayer[k] == layerCore && k.IsControl():
		c = &t.st.coreControl
	case kindLayer[k] != layerCore:
		c = &t.st.other // no protocol owns the kind; the Mux drops it
	}
	t.exit(t0, c)
}

// ConnUp implements node.Handler.
func (t *tracer) ConnUp(peer ids.NodeID) {
	t0 := t.enter()
	t.inner.ConnUp(peer)
	t.exit(t0, &t.st.conns)
}

// ConnDown implements node.Handler.
func (t *tracer) ConnDown(peer ids.NodeID, err error) {
	t0 := t.enter()
	t.inner.ConnDown(peer, err)
	t.exit(t0, &t.st.conns)
}

// Stop implements node.Handler.
func (t *tracer) Stop() {
	t0 := t.enter()
	t.inner.Stop()
	t.exit(t0, &t.st.other)
}

// hardRepairs returns an OnEvent callback that appends each hard repair's
// recovery delay (ms) to dst. Install one per peer: it runs on the peer's
// actor.
func hardRepairs(dst *[]float64) func(brisa.Event) {
	return func(ev brisa.Event) {
		if ev.Type == brisa.EvRepaired && ev.Hard {
			*dst = append(*dst, 1000*ev.Dur.Seconds())
		}
	}
}

// tracedEnv times the runtime calls the protocol stack makes.
type tracedEnv struct {
	node.Env
	t *tracer
}

// Send implements node.Env.
func (e *tracedEnv) Send(to ids.NodeID, m wire.Message) {
	t0 := nanotime()
	e.Env.Send(to, m)
	d := nanotime() - t0
	e.t.nested += d
	e.t.st.sends.n++
	e.t.st.sends.ns += d
}

// After implements node.Env: the callback is timed when it fires.
func (e *tracedEnv) After(d time.Duration, fn func()) node.Timer {
	return e.Env.After(d, func() {
		t0 := e.t.enter()
		fn()
		e.t.exit(t0, &e.t.st.timers)
	})
}
