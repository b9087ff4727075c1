// Package cyclon implements the Cyclon peer sampling service (Voulgaris,
// Gavidia, van Steen — JNSM 2005): a proactive PSS where each node
// periodically swaps aged view entries with its oldest neighbor. The
// SimpleGossip baseline of the BRISA paper (§III-D(a)) runs on top of it.
//
// Unlike HyParView, Cyclon maintains no monitored connections and no
// explicit failure detection — stale entries age out through shuffling,
// which is exactly the property the paper contrasts against.
package cyclon

import (
	"time"

	"repro/internal/ids"
	"repro/internal/node"
	"repro/internal/wire"
)

// Config tunes the protocol.
type Config struct {
	// ViewSize is the partial view capacity (paper notation: c).
	ViewSize int
	// ShuffleLen is how many entries are exchanged per shuffle (l).
	ShuffleLen int
	// Period is the shuffle interval.
	Period time.Duration
}

// DefaultConfig mirrors common Cyclon deployments: c=20, l=8, 5s period.
func DefaultConfig() Config {
	return Config{ViewSize: 20, ShuffleLen: 8, Period: 5 * time.Second}
}

type entry struct {
	node ids.NodeID
	age  uint16
}

// Protocol is one node's Cyclon instance (a node.Proto).
type Protocol struct {
	node.BaseProto
	cfg     Config
	env     node.Env
	view    []entry
	pending map[ids.NodeID][]entry // entries sent in an in-flight shuffle
	out     *node.Outbox           // shuffles go over short-lived connections
	stopped bool
	timer   node.Timer
}

// Kinds returns the wire kinds this protocol owns.
func Kinds() []wire.Kind {
	return []wire.Kind{wire.KindCyclonShuffle, wire.KindCyclonShuffleReply}
}

// New builds a Protocol.
func New(cfg Config) *Protocol {
	if cfg.ViewSize <= 0 {
		panic("cyclon: ViewSize must be positive")
	}
	if cfg.ShuffleLen <= 0 || cfg.ShuffleLen > cfg.ViewSize {
		cfg.ShuffleLen = cfg.ViewSize / 2
	}
	return &Protocol{cfg: cfg, pending: make(map[ids.NodeID][]entry)}
}

// Start implements node.Proto.
func (p *Protocol) Start(env node.Env) {
	p.env = env
	p.out = node.NewOutbox(env)
	delay := p.cfg.Period/2 + time.Duration(env.Rand().Int63n(int64(p.cfg.Period)))
	p.timer = env.After(delay, p.tick)
}

// Stop implements node.Proto.
func (p *Protocol) Stop() {
	p.stopped = true
	if p.timer != nil {
		p.timer.Stop()
	}
}

// Join seeds the view with a contact node.
func (p *Protocol) Join(contact ids.NodeID) {
	p.insert(entry{node: contact})
}

// View returns the current neighbor sample, ascending.
func (p *Protocol) View() []ids.NodeID {
	out := make([]ids.NodeID, 0, len(p.view))
	for _, e := range p.view {
		out = append(out, e.node)
	}
	ids.Sort(out)
	return out
}

// Sample returns up to n distinct random view members.
func (p *Protocol) Sample(n int) []ids.NodeID {
	v := p.View()
	if n >= len(v) {
		return v
	}
	p.env.Rand().Shuffle(len(v), func(i, j int) { v[i], v[j] = v[j], v[i] })
	return v[:n]
}

func (p *Protocol) contains(id ids.NodeID) bool {
	for _, e := range p.view {
		if e.node == id {
			return true
		}
	}
	return false
}

func (p *Protocol) insert(e entry) {
	if e.node == p.env.ID() || e.node == ids.Nil || p.contains(e.node) {
		return
	}
	if len(p.view) < p.cfg.ViewSize {
		p.view = append(p.view, e)
		return
	}
	// Replace a random entry (the canonical policy prefers replacing the
	// entries just sent out; those were already removed in tick).
	p.view[p.env.Rand().Intn(len(p.view))] = e
}

// tick runs one shuffle round: age everyone, pick the oldest neighbor, send
// it ShuffleLen-1 random entries plus a fresh self-descriptor.
func (p *Protocol) tick() {
	if p.stopped {
		return
	}
	defer func() { p.timer = p.env.After(p.cfg.Period, p.tick) }()
	if len(p.view) == 0 {
		return
	}
	oldest := 0
	for i, e := range p.view {
		if e.age > p.view[oldest].age {
			oldest = i
		}
	}
	for i := range p.view {
		p.view[i].age++
	}
	target := p.view[oldest].node
	// Remove the target and draw ShuffleLen-1 random others.
	p.view = append(p.view[:oldest], p.view[oldest+1:]...)
	sent := p.draw(p.cfg.ShuffleLen - 1)
	p.pending[target] = sent
	msg := wire.CyclonShuffle{Entries: toWire(sent, p.env.ID())}
	p.out.Send(target, msg)
}

// draw removes up to n random entries from the view and returns them.
func (p *Protocol) draw(n int) []entry {
	if n > len(p.view) {
		n = len(p.view)
	}
	p.env.Rand().Shuffle(len(p.view), func(i, j int) { p.view[i], p.view[j] = p.view[j], p.view[i] })
	out := make([]entry, n)
	copy(out, p.view[len(p.view)-n:])
	p.view = p.view[:len(p.view)-n]
	return out
}

func toWire(es []entry, self ids.NodeID) []wire.CyclonEntry {
	out := make([]wire.CyclonEntry, 0, len(es)+1)
	out = append(out, wire.CyclonEntry{Node: self, Age: 0})
	for _, e := range es {
		out = append(out, wire.CyclonEntry{Node: e.node, Age: e.age})
	}
	return out
}

// ConnUp implements node.Proto.
func (p *Protocol) ConnUp(peer ids.NodeID) { p.out.ConnUp(peer) }

// ConnDown implements node.Proto.
func (p *Protocol) ConnDown(peer ids.NodeID, err error) {
	p.out.ConnDown(peer)
	// A failed shuffle partner: drop the pending state; the entries we
	// removed are lost, which is Cyclon's self-cleaning behavior.
	delete(p.pending, peer)
}

// Receive implements node.Proto.
func (p *Protocol) Receive(from ids.NodeID, m wire.Message) {
	switch msg := m.(type) {
	case wire.CyclonShuffle:
		// Answer with our own sample, then integrate theirs.
		reply := p.draw(min(p.cfg.ShuffleLen, len(p.view)))
		p.env.Send(from, wire.CyclonShuffleReply{Entries: toWireNoSelf(reply)})
		p.integrate(msg.Entries, reply)
	case wire.CyclonShuffleReply:
		sent := p.pending[from]
		delete(p.pending, from)
		p.integrate(msg.Entries, sent)
		// Re-insert the shuffle partner with age 0 (we just heard from it).
		p.insert(entry{node: from, age: 0})
		if !p.stopped {
			p.env.Close(from)
		}
	}
}

func toWireNoSelf(es []entry) []wire.CyclonEntry {
	out := make([]wire.CyclonEntry, 0, len(es))
	for _, e := range es {
		out = append(out, wire.CyclonEntry{Node: e.node, Age: e.age})
	}
	return out
}

// integrate merges received entries, then refills leftover slots with the
// entries we had drawn for the exchange (canonical Cyclon merge).
func (p *Protocol) integrate(received []wire.CyclonEntry, drawn []entry) {
	for _, e := range received {
		p.insert(entry{node: e.Node, age: e.Age})
	}
	for _, e := range drawn {
		if len(p.view) >= p.cfg.ViewSize {
			break
		}
		p.insert(e)
	}
}
