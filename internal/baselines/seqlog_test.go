package baselines

import (
	"reflect"
	"testing"

	"repro/internal/wire"
)

func TestLogStartsAtFirstDelivery(t *testing.T) {
	l := newLog(0, false)
	if l.Started() || l.Count() != 0 || l.has(1) {
		t.Fatal("empty log claims deliveries")
	}
	for _, seq := range []uint32{5, 7, 6, 9} {
		if !l.Add(seq, nil) {
			t.Fatalf("Add(%d) reported a duplicate", seq)
		}
	}
	if l.Add(6, nil) || l.Add(3, nil) {
		t.Error("a delivered sequence, or one below the first delivery, was added again")
	}
	if got, want := l.UpTo(), uint32(8); got != want {
		t.Errorf("UpTo = %d, want %d", got, want)
	}
	if got := l.Count(); got != 4 {
		t.Errorf("Count = %d, want 4", got)
	}
	if !l.HasHoles() || !reflect.DeepEqual(l.Holes(10), []uint32{8}) {
		t.Errorf("Holes = %v, want [8]", l.Holes(10))
	}
}

func TestLogWithStartChasesEarlyHoles(t *testing.T) {
	l := newLog(1, true)
	l.Add(4, []byte("d"))
	l.Add(2, []byte("b"))
	if got := l.Holes(10); !reflect.DeepEqual(got, []uint32{1, 3}) {
		t.Errorf("Holes = %v, want [1 3]", got)
	}
	if got := l.Holes(1); !reflect.DeepEqual(got, []uint32{1}) {
		t.Errorf("Holes(1) = %v, want [1]", got)
	}
	l.Add(1, []byte("a"))
	l.Add(3, []byte("c"))
	if l.UpTo() != 5 || l.HasHoles() || len(l.Holes(10)) != 0 || l.Count() != 4 {
		t.Errorf("after filling: UpTo %d, holes %v, count %d", l.UpTo(), l.Holes(10), l.Count())
	}
}

func TestLogServe(t *testing.T) {
	l := newLog(0, true)
	for seq := uint32(1); seq <= 5; seq++ {
		l.Add(seq, []byte{byte(seq)})
	}
	seqs := func(items []wire.StreamItem) []uint32 {
		var out []uint32
		for _, it := range items {
			out = append(out, it.Seq)
		}
		return out
	}
	if got := seqs(l.Serve([]uint32{2, 9}, 4, 10)); !reflect.DeepEqual(got, []uint32{2, 4, 5}) {
		t.Errorf("Serve = %v, want missing first, then from upTo: [2 4 5]", got)
	}
	if got := seqs(l.Serve([]uint32{3, 2}, 1, 1)); !reflect.DeepEqual(got, []uint32{3}) {
		t.Errorf("Serve with limit 1 = %v, want [3]", got)
	}
	if got := seqs(l.Serve(nil, 0, 2)); !reflect.DeepEqual(got, []uint32{1, 2}) {
		t.Errorf("Serve from 0 = %v, want the prefix start on: [1 2]", got)
	}
}

func TestLogPublishNumbersFromOne(t *testing.T) {
	l := newLog(0, false)
	for want := uint32(1); want <= 3; want++ {
		if got := l.Publish(nil); got != want {
			t.Fatalf("Publish = %d, want %d", got, want)
		}
	}
	if l.Count() != 3 || !l.has(2) {
		t.Errorf("published messages not logged: count %d", l.Count())
	}
}

func TestStreams(t *testing.T) {
	s := NewStreams(0, false)
	if s.Count(7) != 0 {
		t.Error("unknown stream has deliveries")
	}
	for _, id := range []wire.StreamID{9, 2, 5} {
		s.Get(id).Add(1, nil)
	}
	if got := s.IDs(); !reflect.DeepEqual(got, []wire.StreamID{2, 5, 9}) {
		t.Errorf("IDs = %v, want ascending [2 5 9]", got)
	}
	if s.Get(5) != s.Get(5) || s.Count(5) != 1 {
		t.Error("Get does not return the stream's one log")
	}
}
