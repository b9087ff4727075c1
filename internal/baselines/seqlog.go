// Package baselines holds what the paper's §III-D baseline protocols
// (SimpleTree, SimpleGossip and TAG, in the subpackages) share: the log of
// which sequence numbers of a stream a peer has delivered.
package baselines

import (
	"slices"

	"repro/internal/wire"
)

// Log is one stream's delivered sequence numbers at one peer: a contiguous
// prefix [base, UpTo) plus the deliveries above it, and optionally every
// payload so the peer can serve pulls. When the peer sources the stream,
// Publish also numbers its messages from 1.
type Log struct {
	start    uint32 // fixed prefix start, or 0: start at the first delivery
	started  bool
	base     uint32
	upTo     uint32
	sparse   map[uint32]struct{}
	top      uint32            // highest sequence added: the sparse maximum while sparse is non-empty
	payloads map[uint32][]byte // nil unless payloads are kept
	nextSeq  uint32
}

// newLog returns an empty log. A non-zero start fixes where the contiguous
// prefix begins, so every sequence from start on counts as a hole until
// delivered; with start 0 the prefix begins at the first delivery.
// keepPayloads makes the log buffer every payload for Serve.
func newLog(start uint32, keepPayloads bool) *Log {
	l := &Log{start: start, sparse: make(map[uint32]struct{})}
	if keepPayloads {
		l.payloads = make(map[uint32][]byte)
	}
	return l
}

// Started reports whether anything was delivered yet.
func (l *Log) Started() bool { return l.started }

// UpTo is the first sequence number not in the contiguous prefix: every
// sequence below it was delivered (or precedes the prefix).
func (l *Log) UpTo() uint32 { return l.upTo }

// HasHoles reports whether deliveries above the prefix leave gaps below them.
func (l *Log) HasHoles() bool { return len(l.sparse) > 0 }

// Count returns how many distinct messages were delivered.
func (l *Log) Count() uint64 {
	if !l.started {
		return 0
	}
	return uint64(l.upTo-l.base) + uint64(len(l.sparse))
}

// has reports whether seq counts as delivered.
func (l *Log) has(seq uint32) bool {
	if !l.started {
		return false
	}
	if seq < l.upTo {
		return true
	}
	_, ok := l.sparse[seq]
	return ok
}

// Add records the delivery of seq and reports whether it was new.
func (l *Log) Add(seq uint32, payload []byte) bool {
	if l.has(seq) {
		return false
	}
	if !l.started {
		l.started = true
		l.base = seq
		if l.start != 0 {
			l.base = l.start
		}
		l.upTo = l.base
	}
	l.sparse[seq] = struct{}{}
	l.top = max(l.top, seq)
	if l.payloads != nil {
		l.payloads[seq] = payload
	}
	for {
		if _, ok := l.sparse[l.upTo]; !ok {
			break
		}
		delete(l.sparse, l.upTo)
		l.upTo++
	}
	return true
}

// Publish numbers the next message of a stream this peer sources, records
// it as delivered and returns its sequence number.
func (l *Log) Publish(payload []byte) uint32 {
	l.nextSeq++
	l.Add(l.nextSeq, payload)
	return l.nextSeq
}

// Holes lists up to limit missing sequence numbers between the prefix and
// the highest delivery, ascending.
func (l *Log) Holes(limit int) []uint32 {
	out := make([]uint32, 0, 8)
	for seq := l.upTo; seq < l.top && len(out) < limit; seq++ {
		if _, ok := l.sparse[seq]; !ok {
			out = append(out, seq)
		}
	}
	return out
}

// Serve answers a pull: the buffered payloads of the missing sequences
// first, then those from upTo on (but not below the prefix start), up to
// limit items in all.
func (l *Log) Serve(missing []uint32, upTo uint32, limit int) []wire.StreamItem {
	var items []wire.StreamItem
	for _, seq := range missing {
		if len(items) >= limit {
			return items
		}
		if payload, ok := l.payloads[seq]; ok {
			items = append(items, wire.StreamItem{Seq: seq, Payload: payload})
		}
	}
	for seq := max(upTo, l.base); len(items) < limit; seq++ {
		payload, ok := l.payloads[seq]
		if !ok {
			break
		}
		items = append(items, wire.StreamItem{Seq: seq, Payload: payload})
	}
	return items
}

// Streams holds a peer's logs, one per stream, each made on first use.
type Streams struct {
	start        uint32
	keepPayloads bool
	logs         map[wire.StreamID]*Log
}

// NewStreams returns an empty set of logs, each made by newLog(start,
// keepPayloads).
func NewStreams(start uint32, keepPayloads bool) Streams {
	return Streams{start: start, keepPayloads: keepPayloads, logs: make(map[wire.StreamID]*Log)}
}

// Get returns the stream's log, making it if needed.
func (s Streams) Get(id wire.StreamID) *Log {
	l, ok := s.logs[id]
	if !ok {
		l = newLog(s.start, s.keepPayloads)
		s.logs[id] = l
	}
	return l
}

// Count returns how many distinct messages of the stream were delivered.
func (s Streams) Count(id wire.StreamID) uint64 {
	if l, ok := s.logs[id]; ok {
		return l.Count()
	}
	return 0
}

// IDs returns the known streams ascending, so per-stream sends go out in
// the same order on every run.
func (s Streams) IDs() []wire.StreamID {
	out := make([]wire.StreamID, 0, len(s.logs))
	for id := range s.logs {
		out = append(out, id)
	}
	slices.Sort(out)
	return out
}
