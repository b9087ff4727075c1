package node

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/ids"
	"repro/internal/wire"
)

// connEnv is an Env whose connections open only when the test says so.
type connEnv struct {
	up    map[ids.NodeID]bool
	dials []ids.NodeID
	sent  []ids.NodeID
}

func (e *connEnv) ID() ids.NodeID                     { return 1 }
func (e *connEnv) Now() time.Time                     { return time.Time{} }
func (e *connEnv) Rand() *rand.Rand                   { return nil }
func (e *connEnv) After(time.Duration, func()) Timer  { return nil }
func (e *connEnv) Connect(to ids.NodeID)              { e.dials = append(e.dials, to) }
func (e *connEnv) Close(ids.NodeID)                   {}
func (e *connEnv) Send(to ids.NodeID, _ wire.Message) { e.sent = append(e.sent, to) }
func (e *connEnv) Connected(to ids.NodeID) bool       { return e.up[to] }
func (e *connEnv) Log(string, ...any)                 {}

func TestOutbox(t *testing.T) {
	env := &connEnv{up: map[ids.NodeID]bool{2: true}}
	o := NewOutbox(env)
	o.Send(2, wire.Rumor{}) // open: goes out at once
	o.Send(3, wire.Rumor{}) // queued, dialed
	o.Send(4, wire.Rumor{})
	o.Send(3, wire.Rumor{})
	o.Send(1, wire.Rumor{})       // self: dropped
	o.Send(ids.Nil, wire.Rumor{}) // Nil: dropped
	if len(env.sent) != 1 || env.sent[0] != 2 {
		t.Fatalf("sent %v before any dial completed, want [2]", env.sent)
	}
	if len(env.dials) != 3 {
		t.Errorf("dials %v, want one per queued message to a closed peer", env.dials)
	}
	o.ConnUp(3)
	o.ConnDown(4)
	o.ConnUp(4) // the queue for 4 was dropped
	if want := []ids.NodeID{2, 3, 3}; !reflect.DeepEqual(env.sent, want) {
		t.Errorf("sent %v, want %v", env.sent, want)
	}
}
