// Package monitor is the measurement channel of the distributed runtime:
// every remote peer process streams bucketed per-stream samples (deliveries,
// publish timestamps, duplicates, repair delays, traffic counters, blob
// completions) over one TCP connection back to a Collector in the driver
// process, which folds them into the shared Report.
//
// The package defines its own compact binary codec, mirroring internal/wire's
// conventions — fixed-width big-endian primitives via wire.Encoder/Decoder, a
// Message interface with Kind/AppendTo/WireSize, a registry of per-kind
// decoders — and internal/livenet's framing: a 4-byte big-endian length
// prefix, then kind byte + body, bounded by maxFrame. The two kind spaces are
// independent: a monitor link only ever carries monitor frames.
//
// Latencies are measured against the publisher's wall clock: the source
// worker reports each publish instant (Publish frames), receivers report each
// delivery instant (Deliveries frames), and the Collector joins the two at
// fold time. On one host the offset is exact; across hosts it inherits the
// deployment's clock synchronization (NTP-grade skew), exactly like the
// paper's testbed measurements.
package monitor

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/ids"
	"repro/internal/wire"
)

// Kind identifies a monitor message type on the wire.
type Kind uint8

const (
	// KindHello must open every connection: it binds the link to one node.
	KindHello Kind = 1 + iota
	// KindFlush is the barrier marker: everything the worker measured
	// before the carrying flush command precedes it on the connection.
	KindFlush
	// KindPublish reports one workload publish on the source's clock.
	KindPublish
	// KindDeliveries reports a bucket of deliveries on the receiver's clock.
	KindDeliveries
	// KindDuplicates reports duplicate receptions since the last report.
	KindDuplicates
	// KindRepairs reports hard-repair recovery delays since the last report.
	KindRepairs
	// KindTraffic reports the node's cumulative wire counters.
	KindTraffic
	// KindNodeMetrics reports the node's cumulative protocol counters.
	KindNodeMetrics
	// KindBlobPublished reports one blob injection (size and content hash).
	KindBlobPublished
	// KindBlobDone reports one completed blob reconstruction.
	KindBlobDone
	// KindStreamSnap reports one stream's end-of-interval peer snapshot.
	KindStreamSnap
	// KindBlobSnap reports one blob stream's cumulative counters.
	KindBlobSnap
)

// String names the kind for logs and errors.
func (k Kind) String() string {
	if name, ok := kindNames[k]; ok {
		return name
	}
	return fmt.Sprintf("monitor-kind(%d)", uint8(k))
}

var kindNames = map[Kind]string{
	KindHello:         "Hello",
	KindFlush:         "Flush",
	KindPublish:       "Publish",
	KindDeliveries:    "Deliveries",
	KindDuplicates:    "Duplicates",
	KindRepairs:       "Repairs",
	KindTraffic:       "Traffic",
	KindNodeMetrics:   "NodeMetrics",
	KindBlobPublished: "BlobPublished",
	KindBlobDone:      "BlobDone",
	KindStreamSnap:    "StreamSnap",
	KindBlobSnap:      "BlobSnap",
}

// Message is implemented by every monitor frame. Same contract as
// wire.Message: WireSize() == 1+len(AppendTo(nil)).
type Message interface {
	Kind() Kind
	AppendTo(b []byte) []byte
	WireSize() int
}

// maxAgent bounds the Hello agent label.
const maxAgent = 256

// maxBatch bounds decoded per-frame element counts (delivery samples,
// repair delays, parent ids) against hostile length prefixes.
const maxBatch = 1 << 16

// Hello opens a connection: which agent hosts the node, its join index, and
// its overlay identifier. Every later frame on the connection is attributed
// to Node.
type Hello struct {
	Agent string
	Index uint32
	Node  ids.NodeID
}

func (Hello) Kind() Kind { return KindHello }
func (m Hello) AppendTo(b []byte) []byte {
	e := wire.Encoder{B: b}
	e.Bytes([]byte(m.Agent))
	e.U32(m.Index)
	e.NodeID(m.Node)
	return e.B
}
func (m Hello) WireSize() int { return 1 + 4 + len(m.Agent) + 4 + ids.WireSize }

// Flush is the barrier marker a worker appends after draining its buffers on
// a flush command: when the Collector has seen token T from a node, it holds
// everything that node measured before the command.
type Flush struct {
	Token uint64
}

func (Flush) Kind() Kind { return KindFlush }
func (m Flush) AppendTo(b []byte) []byte {
	e := wire.Encoder{B: b}
	e.U64(m.Token)
	return e.B
}
func (Flush) WireSize() int { return 1 + 8 }

// Publish is one workload publish: sequence number and the instant on the
// publisher's clock, recorded just before the injection so a remote delivery
// racing ahead still finds the timestamp at fold time.
type Publish struct {
	WI  uint16 // workload index in the scenario
	Seq uint32
	At  int64 // unix nanoseconds on the publisher's clock
}

func (Publish) Kind() Kind { return KindPublish }
func (m Publish) AppendTo(b []byte) []byte {
	e := wire.Encoder{B: b}
	e.U16(m.WI)
	e.U32(m.Seq)
	e.I64(m.At)
	return e.B
}
func (Publish) WireSize() int { return 1 + 2 + 4 + 8 }

// SeqAt is one delivery: sequence number and receiver-clock instant.
type SeqAt struct {
	Seq uint32
	At  int64 // unix nanoseconds on the receiver's clock
}

// Deliveries is a bucket of deliveries for one workload, flushed
// periodically so the driver's drain poll sees fresh counts.
type Deliveries struct {
	WI      uint16
	Samples []SeqAt
}

func (Deliveries) Kind() Kind { return KindDeliveries }
func (m Deliveries) AppendTo(b []byte) []byte {
	e := wire.Encoder{B: b}
	e.U16(m.WI)
	e.U32(uint32(len(m.Samples)))
	for _, s := range m.Samples {
		e.U32(s.Seq)
		e.I64(s.At)
	}
	return e.B
}
func (m Deliveries) WireSize() int { return 1 + 2 + 4 + len(m.Samples)*12 }

// Duplicates reports duplicate receptions of one workload since the last
// Duplicates frame (a delta, so lost tails only lose their own window).
type Duplicates struct {
	WI    uint16
	Count uint64
}

func (Duplicates) Kind() Kind { return KindDuplicates }
func (m Duplicates) AppendTo(b []byte) []byte {
	e := wire.Encoder{B: b}
	e.U16(m.WI)
	e.U64(m.Count)
	return e.B
}
func (Duplicates) WireSize() int { return 1 + 2 + 8 }

// Repairs reports hard-repair recovery delays since the last Repairs frame.
type Repairs struct {
	HardNanos []int64
}

func (Repairs) Kind() Kind { return KindRepairs }
func (m Repairs) AppendTo(b []byte) []byte {
	e := wire.Encoder{B: b}
	e.U32(uint32(len(m.HardNanos)))
	for _, d := range m.HardNanos {
		e.I64(d)
	}
	return e.B
}
func (m Repairs) WireSize() int { return 1 + 4 + len(m.HardNanos)*8 }

// Traffic is the node's cumulative wire counters (latest wins).
type Traffic struct {
	MsgsIn, MsgsOut, BytesIn, BytesOut uint64
}

func (Traffic) Kind() Kind { return KindTraffic }
func (m Traffic) AppendTo(b []byte) []byte {
	e := wire.Encoder{B: b}
	e.U64(m.MsgsIn)
	e.U64(m.MsgsOut)
	e.U64(m.BytesIn)
	e.U64(m.BytesOut)
	return e.B
}
func (Traffic) WireSize() int { return 1 + 4*8 }

// NodeMetrics is the cumulative protocol-counter subset the churn brackets
// need (latest wins).
type NodeMetrics struct {
	ParentsLost, Orphans, SoftRepairs, HardRepairs uint64
}

func (NodeMetrics) Kind() Kind { return KindNodeMetrics }
func (m NodeMetrics) AppendTo(b []byte) []byte {
	e := wire.Encoder{B: b}
	e.U64(m.ParentsLost)
	e.U64(m.Orphans)
	e.U64(m.SoftRepairs)
	e.U64(m.HardRepairs)
	return e.B
}
func (NodeMetrics) WireSize() int { return 1 + 4*8 }

// BlobPublished is one blob injection: payload size and FNV-64a content
// hash, against which receivers' reconstructions are verified at fold time.
type BlobPublished struct {
	WI   uint16 // blob workload index in the scenario
	Blob uint32
	Size uint64
	Hash uint64
}

func (BlobPublished) Kind() Kind { return KindBlobPublished }
func (m BlobPublished) AppendTo(b []byte) []byte {
	e := wire.Encoder{B: b}
	e.U16(m.WI)
	e.U32(m.Blob)
	e.U64(m.Size)
	e.U64(m.Hash)
	return e.B
}
func (BlobPublished) WireSize() int { return 1 + 2 + 4 + 8 + 8 }

// BlobDone is one completed blob reconstruction on one node.
type BlobDone struct {
	WI       uint16
	Blob     uint32
	Hash     uint64 // FNV-64a of the reassembled bytes
	Bytes    uint64 // reassembled payload size
	LatNanos int64  // first chunk → reconstruction, on the node's clock
}

func (BlobDone) Kind() Kind { return KindBlobDone }
func (m BlobDone) AppendTo(b []byte) []byte {
	e := wire.Encoder{B: b}
	e.U16(m.WI)
	e.U32(m.Blob)
	e.U64(m.Hash)
	e.U64(m.Bytes)
	e.I64(m.LatNanos)
	return e.B
}
func (BlobDone) WireSize() int { return 1 + 2 + 4 + 8 + 8 + 8 }

// StreamSnap is one stream's peer snapshot at a flush barrier: the
// authoritative delivered count and the structural state the Report's
// end-of-run polls read (latest wins).
type StreamSnap struct {
	WI             uint16
	Delivered      uint64
	Orphan         bool
	Parents        []ids.NodeID
	Depth          int32
	DepthOK        bool
	ConstructNanos int64
	ConstructOK    bool
}

func (StreamSnap) Kind() Kind { return KindStreamSnap }
func (m StreamSnap) AppendTo(b []byte) []byte {
	e := wire.Encoder{B: b}
	e.U16(m.WI)
	e.U64(m.Delivered)
	e.Bool(m.Orphan)
	e.NodeIDs(m.Parents)
	e.U32(uint32(m.Depth))
	e.Bool(m.DepthOK)
	e.I64(m.ConstructNanos)
	e.Bool(m.ConstructOK)
	return e.B
}
func (m StreamSnap) WireSize() int {
	return 1 + 2 + 8 + 1 + 2 + len(m.Parents)*ids.WireSize + 4 + 1 + 8 + 1
}

// BlobSnap is one blob stream's cumulative counters at a flush barrier
// (latest wins) — the fields of core.BlobStats.
type BlobSnap struct {
	WI             uint16
	Published      uint64
	Delivered      uint64
	Dropped        uint64
	ChunksReceived uint64
	ChunkDups      uint64
	ChunksPulled   uint64
	ChunksServed   uint64
	WantsSent      uint64
	ChunkBytesSent uint64
}

func (BlobSnap) Kind() Kind { return KindBlobSnap }
func (m BlobSnap) AppendTo(b []byte) []byte {
	e := wire.Encoder{B: b}
	e.U16(m.WI)
	e.U64(m.Published)
	e.U64(m.Delivered)
	e.U64(m.Dropped)
	e.U64(m.ChunksReceived)
	e.U64(m.ChunkDups)
	e.U64(m.ChunksPulled)
	e.U64(m.ChunksServed)
	e.U64(m.WantsSent)
	e.U64(m.ChunkBytesSent)
	return e.B
}
func (BlobSnap) WireSize() int { return 1 + 2 + 9*8 }

// ---------------------------------------------------------------- codec

// Marshal encodes a message as kind byte + body.
func Marshal(m Message) []byte {
	b := make([]byte, 0, m.WireSize())
	b = append(b, byte(m.Kind()))
	return m.AppendTo(b)
}

// Unmarshal decodes a frame produced by Marshal.
func Unmarshal(frame []byte) (Message, error) {
	if len(frame) == 0 {
		return nil, wire.ErrTruncated
	}
	kind := Kind(frame[0])
	ctor, ok := decoders[kind]
	if !ok {
		return nil, fmt.Errorf("monitor: unknown kind %d", kind)
	}
	return ctor(frame[1:])
}

type decodeFunc func(body []byte) (Message, error)

var decoders = map[Kind]decodeFunc{}

func register(k Kind, fn decodeFunc) {
	if _, dup := decoders[k]; dup {
		panic(fmt.Sprintf("monitor: duplicate decoder for %v", k))
	}
	decoders[k] = fn
}

// finish wraps Decoder.Finish so every decoder returns (nil, err) on any
// decode error, never a half-filled message.
func finish(d *wire.Decoder, m Message) (Message, error) {
	if err := d.Finish(); err != nil {
		return nil, err
	}
	return m, nil
}

func init() {
	register(KindHello, func(body []byte) (Message, error) {
		d := wire.Decoder{B: body}
		name := d.Bytes()
		if len(name) > maxAgent {
			return nil, fmt.Errorf("monitor: agent label %d bytes, max %d", len(name), maxAgent)
		}
		m := Hello{Agent: string(name), Index: d.U32(), Node: d.NodeID()}
		return finish(&d, m)
	})
	register(KindFlush, func(body []byte) (Message, error) {
		d := wire.Decoder{B: body}
		m := Flush{Token: d.U64()}
		return finish(&d, m)
	})
	register(KindPublish, func(body []byte) (Message, error) {
		d := wire.Decoder{B: body}
		m := Publish{WI: d.U16(), Seq: d.U32(), At: d.I64()}
		return finish(&d, m)
	})
	register(KindDeliveries, func(body []byte) (Message, error) {
		d := wire.Decoder{B: body}
		m := Deliveries{WI: d.U16()}
		n := int(d.U32())
		if n > maxBatch {
			return nil, fmt.Errorf("monitor: %d delivery samples, max %d", n, maxBatch)
		}
		if n > 0 && d.Err == nil {
			if len(body)-d.Off < n*12 {
				return nil, wire.ErrTruncated
			}
			m.Samples = make([]SeqAt, n)
			for i := range m.Samples {
				m.Samples[i] = SeqAt{Seq: d.U32(), At: d.I64()}
			}
		}
		return finish(&d, m)
	})
	register(KindDuplicates, func(body []byte) (Message, error) {
		d := wire.Decoder{B: body}
		m := Duplicates{WI: d.U16(), Count: d.U64()}
		return finish(&d, m)
	})
	register(KindRepairs, func(body []byte) (Message, error) {
		d := wire.Decoder{B: body}
		var m Repairs
		n := int(d.U32())
		if n > maxBatch {
			return nil, fmt.Errorf("monitor: %d repair delays, max %d", n, maxBatch)
		}
		if n > 0 && d.Err == nil {
			if len(body)-d.Off < n*8 {
				return nil, wire.ErrTruncated
			}
			m.HardNanos = make([]int64, n)
			for i := range m.HardNanos {
				m.HardNanos[i] = d.I64()
			}
		}
		return finish(&d, m)
	})
	register(KindTraffic, func(body []byte) (Message, error) {
		d := wire.Decoder{B: body}
		m := Traffic{MsgsIn: d.U64(), MsgsOut: d.U64(), BytesIn: d.U64(), BytesOut: d.U64()}
		return finish(&d, m)
	})
	register(KindNodeMetrics, func(body []byte) (Message, error) {
		d := wire.Decoder{B: body}
		m := NodeMetrics{ParentsLost: d.U64(), Orphans: d.U64(), SoftRepairs: d.U64(), HardRepairs: d.U64()}
		return finish(&d, m)
	})
	register(KindBlobPublished, func(body []byte) (Message, error) {
		d := wire.Decoder{B: body}
		m := BlobPublished{WI: d.U16(), Blob: d.U32(), Size: d.U64(), Hash: d.U64()}
		return finish(&d, m)
	})
	register(KindBlobDone, func(body []byte) (Message, error) {
		d := wire.Decoder{B: body}
		m := BlobDone{WI: d.U16(), Blob: d.U32(), Hash: d.U64(), Bytes: d.U64(), LatNanos: d.I64()}
		return finish(&d, m)
	})
	register(KindStreamSnap, func(body []byte) (Message, error) {
		d := wire.Decoder{B: body}
		m := StreamSnap{WI: d.U16(), Delivered: d.U64(), Orphan: d.Bool()}
		m.Parents = d.NodeIDs()
		m.Depth = int32(d.U32())
		m.DepthOK = d.Bool()
		m.ConstructNanos = d.I64()
		m.ConstructOK = d.Bool()
		return finish(&d, m)
	})
	register(KindBlobSnap, func(body []byte) (Message, error) {
		d := wire.Decoder{B: body}
		m := BlobSnap{WI: d.U16(), Published: d.U64(), Delivered: d.U64(), Dropped: d.U64(),
			ChunksReceived: d.U64(), ChunkDups: d.U64(), ChunksPulled: d.U64(),
			ChunksServed: d.U64(), WantsSent: d.U64(), ChunkBytesSent: d.U64()}
		return finish(&d, m)
	})
}

// ---------------------------------------------------------------- framing

// maxFrame bounds one monitor frame, mirroring livenet's transport bound.
const maxFrame = 1 << 20

// WriteFrame writes one length-prefixed frame: 4-byte big-endian length,
// then kind byte + body. Not safe for concurrent use on one writer; callers
// serialize (the worker holds its send mutex).
func WriteFrame(w io.Writer, m Message) error {
	size := m.WireSize()
	if size > maxFrame {
		return fmt.Errorf("monitor: frame %v is %d bytes, max %d", m.Kind(), size, maxFrame)
	}
	buf := make([]byte, 4, 4+size)
	binary.BigEndian.PutUint32(buf, uint32(size))
	buf = append(buf, byte(m.Kind()))
	buf = m.AppendTo(buf)
	_, err := w.Write(buf)
	return err
}

// ReadFrame reads one length-prefixed frame written by WriteFrame.
func ReadFrame(r *bufio.Reader) (Message, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	size := binary.BigEndian.Uint32(hdr[:])
	if size == 0 || size > maxFrame {
		return nil, fmt.Errorf("monitor: bad frame size %d", size)
	}
	frame := make([]byte, size)
	if _, err := io.ReadFull(r, frame); err != nil {
		return nil, err
	}
	return Unmarshal(frame)
}
