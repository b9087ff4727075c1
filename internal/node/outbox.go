package node

import (
	"repro/internal/ids"
	"repro/internal/wire"
)

// Outbox sends over connections opened on demand, for protocols that keep
// no standing links: a message to a peer with an open connection goes out at
// once; otherwise it waits in a queue while the peer is dialed. The owner
// forwards its ConnUp and ConnDown callbacks, which flush or drop a peer's
// queue. The queue is tiny, so a slice scan is fine.
type Outbox struct {
	env    Env
	queued []queuedMsg
}

type queuedMsg struct {
	to ids.NodeID
	m  wire.Message
}

// NewOutbox returns an empty outbox sending through env.
func NewOutbox(env Env) *Outbox { return &Outbox{env: env} }

// Send transmits m to peer to, dialing first if needed. Messages to the
// node itself or to ids.Nil are dropped.
func (o *Outbox) Send(to ids.NodeID, m wire.Message) {
	if to == o.env.ID() || to == ids.Nil {
		return
	}
	if o.env.Connected(to) {
		o.env.Send(to, m)
		return
	}
	o.queued = append(o.queued, queuedMsg{to: to, m: m})
	o.env.Connect(to)
}

// ConnUp sends everything queued for peer.
func (o *Outbox) ConnUp(peer ids.NodeID) {
	o.filter(peer, true)
}

// ConnDown drops everything queued for peer.
func (o *Outbox) ConnDown(peer ids.NodeID) {
	o.filter(peer, false)
}

// filter removes peer's queued messages, sending them first if send is set.
func (o *Outbox) filter(peer ids.NodeID, send bool) {
	kept := o.queued[:0]
	for _, q := range o.queued {
		switch {
		case q.to != peer:
			kept = append(kept, q)
		case send:
			o.env.Send(peer, q.m)
		}
	}
	o.queued = kept
}
