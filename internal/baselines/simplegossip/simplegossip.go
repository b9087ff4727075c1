// Package simplegossip implements the paper's robustness-end baseline
// (§III-D(a)): Cyclon as the PSS, push rumor mongering with an
// infect-and-die policy and fanout ln(N) for bulk dissemination, and a
// periodic anti-entropy pull against one random node to guarantee
// completeness. The anti-entropy frequency is double the message creation
// rate, as specified in the paper.
package simplegossip

import (
	"math"
	"time"

	"repro/internal/baselines"
	"repro/internal/cyclon"
	"repro/internal/ids"
	"repro/internal/node"
	"repro/internal/wire"
)

// Config tunes one peer.
type Config struct {
	// Fanout is the rumor push fanout; the paper uses ln(N).
	Fanout int
	// AntiEntropyPeriod is the pull period (paper: half the message
	// creation interval, i.e. double the frequency).
	AntiEntropyPeriod time.Duration
	// Cyclon configures the underlying PSS.
	Cyclon cyclon.Config
	// OnDeliver receives every newly delivered payload.
	OnDeliver func(stream wire.StreamID, seq uint32, payload []byte)
}

// FanoutFor returns the paper's fanout for a network of n nodes: ceil(ln n).
func FanoutFor(n int) int {
	if n < 2 {
		return 1
	}
	return int(math.Ceil(math.Log(float64(n))))
}

// Metrics counts per-peer activity.
type Metrics struct {
	Delivered        uint64
	Duplicates       uint64
	RumorsSent       uint64
	AntiEntropyAsks  uint64
	AntiEntropyItems uint64
}

// Peer is one SimpleGossip node: Cyclon + rumor mongering + anti-entropy.
type Peer struct {
	node.BaseProto
	cfg     Config
	env     node.Env
	pss     *cyclon.Protocol
	streams baselines.Streams
	out     *node.Outbox
	metrics Metrics
	stopped bool
	timer   node.Timer
}

// New builds a peer and its Cyclon instance.
func New(cfg Config) *Peer {
	if cfg.Fanout <= 0 {
		cfg.Fanout = 6
	}
	if cfg.AntiEntropyPeriod <= 0 {
		cfg.AntiEntropyPeriod = 100 * time.Millisecond
	}
	if cfg.Cyclon.ViewSize == 0 {
		cfg.Cyclon = cyclon.DefaultConfig()
	}
	return &Peer{
		cfg: cfg,
		pss: cyclon.New(cfg.Cyclon),
		// Anti-entropy guarantees completeness over the whole stream
		// (§III-D(a)), so every log starts at sequence 1: holes before the
		// first rumor a node happened to catch are chased too.
		streams: baselines.NewStreams(1, true),
	}
}

// Now reads the peer's own clock. Call it only from the peer's actor, e.g.
// in an OnDeliver callback: it is the clock a delivery is stamped with.
func (p *Peer) Now() time.Time { return p.env.Now() }

// Handler returns the actor to register with a runtime: the Cyclon layer
// and the gossip layer on one mux.
func (p *Peer) Handler() node.Handler {
	mux := node.NewMux()
	mux.Register(p.pss, cyclon.Kinds()...)
	mux.Register(p, wire.KindRumor, wire.KindAntiEntropyRequest, wire.KindAntiEntropyReply)
	return mux
}

// Join seeds the Cyclon view.
func (p *Peer) Join(contact ids.NodeID) { p.pss.Join(contact) }

// Metrics returns the peer's counters.
func (p *Peer) Metrics() Metrics { return p.metrics }

// View exposes the Cyclon view (tests).
func (p *Peer) View() []ids.NodeID { return p.pss.View() }

// DeliveredCount returns how many distinct messages were delivered.
func (p *Peer) DeliveredCount(stream wire.StreamID) uint64 { return p.streams.Count(stream) }

// Start implements node.Proto.
func (p *Peer) Start(env node.Env) {
	p.env = env
	p.out = node.NewOutbox(env)
	delay := time.Duration(env.Rand().Int63n(int64(p.cfg.AntiEntropyPeriod)))
	p.timer = env.After(p.cfg.AntiEntropyPeriod+delay, p.antiEntropyTick)
}

// Stop implements node.Proto.
func (p *Peer) Stop() {
	p.stopped = true
	if p.timer != nil {
		p.timer.Stop()
	}
}

// Publish injects the next message of a stream this peer sources.
func (p *Peer) Publish(id wire.StreamID, payload []byte) uint32 {
	seq := p.streams.Get(id).Publish(payload)
	p.metrics.Delivered++
	p.push(id, seq, payload, ids.Nil)
	return seq
}

// push sends a rumor to Fanout random view members (infect and die: this is
// called exactly once per message per node).
func (p *Peer) push(id wire.StreamID, seq uint32, payload []byte, except ids.NodeID) {
	targets := p.pss.Sample(p.cfg.Fanout + 1)
	sent := 0
	msg := wire.Rumor{Stream: id, Seq: seq, Payload: payload}
	for _, t := range targets {
		if t == except || sent >= p.cfg.Fanout {
			continue
		}
		p.out.Send(t, msg)
		p.metrics.RumorsSent++
		sent++
	}
}

func (p *Peer) antiEntropyTick() {
	if p.stopped {
		return
	}
	defer func() { p.timer = p.env.After(p.cfg.AntiEntropyPeriod, p.antiEntropyTick) }()
	view := p.pss.Sample(1)
	if len(view) == 0 {
		return
	}
	target := view[0]
	for _, id := range p.streams.IDs() {
		st := p.streams.Get(id)
		if !st.Started() {
			continue
		}
		p.metrics.AntiEntropyAsks++
		p.out.Send(target, wire.AntiEntropyRequest{
			Stream:  id,
			UpTo:    st.UpTo(),
			Missing: st.Holes(64),
		})
	}
}

// Receive implements node.Proto.
func (p *Peer) Receive(from ids.NodeID, m wire.Message) {
	switch msg := m.(type) {
	case wire.Rumor:
		p.onRumor(from, msg)
	case wire.AntiEntropyRequest:
		p.onAERequest(from, msg)
	case wire.AntiEntropyReply:
		p.onAEReply(from, msg)
	}
}

func (p *Peer) onRumor(from ids.NodeID, m wire.Rumor) {
	if !p.streams.Get(m.Stream).Add(m.Seq, m.Payload) {
		p.metrics.Duplicates++
		return // infect and die: duplicates are dropped silently
	}
	p.metrics.Delivered++
	if p.cfg.OnDeliver != nil {
		p.cfg.OnDeliver(m.Stream, m.Seq, m.Payload)
	}
	p.push(m.Stream, m.Seq, m.Payload, from)
}

func (p *Peer) onAERequest(from ids.NodeID, m wire.AntiEntropyRequest) {
	// Serve the explicitly missing seqs first, then anything at or above
	// the requester's contiguous mark.
	items := p.streams.Get(m.Stream).Serve(m.Missing, m.UpTo, 64)
	if len(items) == 0 {
		return
	}
	p.metrics.AntiEntropyItems += uint64(len(items))
	p.out.Send(from, wire.AntiEntropyReply{Stream: m.Stream, Items: items})
}

func (p *Peer) onAEReply(from ids.NodeID, m wire.AntiEntropyReply) {
	st := p.streams.Get(m.Stream)
	for _, it := range m.Items {
		if !st.Add(it.Seq, it.Payload) {
			p.metrics.Duplicates++
			continue
		}
		p.metrics.Delivered++
		if p.cfg.OnDeliver != nil {
			p.cfg.OnDeliver(m.Stream, it.Seq, it.Payload)
		}
		// Recovered messages are not pushed further: anti-entropy heals
		// locally; rumor mongering already seeded the epidemic.
	}
}

// ConnUp implements node.Proto.
func (p *Peer) ConnUp(peer ids.NodeID) { p.out.ConnUp(peer) }

// ConnDown implements node.Proto.
func (p *Peer) ConnDown(peer ids.NodeID, err error) { p.out.ConnDown(peer) }
