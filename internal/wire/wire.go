// Package wire defines every protocol message exchanged in the repository
// and a compact hand-rolled binary codec for them. The same definitions
// serve both substrates: the live TCP transport frames and ships encoded
// bytes, while the discrete-event simulator passes messages by value and
// uses Size (the exact encoded length) to drive its per-byte CPU/network
// cost model. The WAL journals the same encodings.
//
// Encoding is little-endian with fixed-width integers, length-prefixed byte
// strings and uint16-counted lists. Each message type writes its layout
// once, in a code method that walks its fields, in order, through a coder
// (the READWRITE idiom of Bitcoin Core's serializers). The coder runs in one
// of three modes — sizing, encoding, decoding — so Size, the encoder and the
// decoder of a type all derive from that one walk. P2a, which a leader sends
// for every slot, also keeps a hand-written encoder for speed, which a test
// holds to the walk. Decode dispatches on the one-byte type tag.
//
// The codec is built to be allocation-free on the steady-state hot path:
// Encode appends into a caller-owned buffer (GetBuf/PutBuf pool reusable
// scratch) and Decode draws its coder from a sync.Pool.
//
// Who owns decoded bytes depends on the entry point. Decode copies: every
// byte string and slice in the returned message is freshly allocated and
// the input may be reused at once (ReadFrame, WAL replay and snapshots rely
// on that). DecodeInto aliases: byte strings point into the input and
// slices are carved from the stream's Scratch, and both belong to the
// message from then on — the caller gives up the right to rewrite them.
// Either way an empty list or byte string decodes as nil.
package wire

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"
	"time"

	"pigpaxos/internal/ids"
	"pigpaxos/internal/kvstore"
)

// Type tags a message on the wire.
type Type uint8

// Message type tags. The numeric values are part of the wire format.
const (
	TRequest Type = iota + 1
	TReply
	TP1a
	TP1b
	TP2a
	TP2b
	TP3
	TRelayP1a
	TAggP1b
	TRelayP2a
	TAggP2b
	TRelayP3
	TPreAccept
	TPreAcceptReply
	TAccept
	TAcceptReply
	TCommit
	TQReadReq
	TQReadReply
	THeartbeat
	TCatchupReq
	TCatchupReply
	THeartbeatAck
	TPrepare
	TPrepareReply
	TSharded
	TSnapInstall
	TBusy
	maxType
)

// typeNames is indexed by Type; a static array so String never allocates
// a lookup table per call.
var typeNames = [maxType]string{
	TRequest: "Request", TReply: "Reply",
	TP1a: "P1a", TP1b: "P1b", TP2a: "P2a", TP2b: "P2b", TP3: "P3",
	TRelayP1a: "RelayP1a", TAggP1b: "AggP1b",
	TRelayP2a: "RelayP2a", TAggP2b: "AggP2b", TRelayP3: "RelayP3",
	TPreAccept: "PreAccept", TPreAcceptReply: "PreAcceptReply",
	TAccept: "Accept", TAcceptReply: "AcceptReply", TCommit: "Commit",
	TQReadReq: "QReadReq", TQReadReply: "QReadReply",
	THeartbeat:  "Heartbeat",
	TCatchupReq: "CatchupReq", TCatchupReply: "CatchupReply",
	THeartbeatAck: "HeartbeatAck",
	TPrepare:      "Prepare", TPrepareReply: "PrepareReply",
	TSharded:     "Sharded",
	TSnapInstall: "SnapInstall",
	TBusy:        "Busy",
}

// String implements fmt.Stringer.
func (t Type) String() string {
	if t > 0 && t < maxType {
		return typeNames[t]
	}
	return fmt.Sprintf("Type(%d)", uint8(t))
}

// Msg is implemented by every wire message.
type Msg interface {
	// Type returns the wire tag.
	Type() Type
	// Size returns the exact encoded body length in bytes.
	Size() int
	// append encodes the body onto b.
	append(b []byte) []byte
}

// Encode serializes m as [1-byte type][body] and appends to dst.
func Encode(dst []byte, m Msg) []byte {
	dst = append(dst, byte(m.Type()))
	return m.append(dst)
}

// bufPool holds reusable encode scratch buffers. Stored as *[]byte so the
// slice header itself is not re-boxed on every Put.
var bufPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 512)
	return &b
}}

// GetBuf returns a pooled, zero-length encode buffer. Use as
//
//	b := wire.GetBuf()
//	*b = wire.Encode((*b)[:0], m)
//	... ship *b ...
//	wire.PutBuf(b)
//
// so steady-state encoding performs no allocations once buffers have grown
// to the working-set frame size.
func GetBuf() *[]byte {
	b := bufPool.Get().(*[]byte)
	*b = (*b)[:0]
	return b
}

// PutBuf returns a buffer obtained from GetBuf to the pool.
func PutBuf(b *[]byte) {
	if b == nil {
		return
	}
	bufPool.Put(b)
}

// scratchPool recycles the decoding state of Decode, whose slices are never
// carved from the arenas, so Decode performs no bookkeeping allocation per
// message.
var scratchPool = sync.Pool{New: func() any { return new(Scratch) }}

// Decode parses one message from data (as produced by Encode). It returns
// the message and the number of bytes consumed. All variable-length
// contents (command batches, values, ID lists) are freshly allocated and
// safe to retain; data may be rewritten as soon as Decode returns.
func Decode(data []byte) (Msg, int, error) {
	s := scratchPool.Get().(*Scratch)
	m, n, err := s.decode(data, false)
	scratchPool.Put(s)
	return m, n, err
}

// DecodeInto is Decode without the copies, for a stream whose buffers are
// written once: byte strings in the returned message alias data, and command
// batches, ID lists and slot entries are carved from s. Ownership of both
// passes to the message — the caller must never rewrite the decoded part of
// data, and s never reuses what it handed out — so a handler may retain
// anything it is given for as long as it likes, and the memory is collected
// when the last message referencing a chunk is dropped. Aliases are capped,
// so appending to one reallocates instead of running into its neighbour.
// What is left to allocate per message is the interface box. A nil s decodes
// exactly as Decode does.
func DecodeInto(s *Scratch, data []byte) (Msg, int, error) {
	if s == nil {
		return Decode(data)
	}
	return s.decode(data, true)
}

func (s *Scratch) decode(data []byte, alias bool) (Msg, int, error) {
	if len(data) == 0 {
		return nil, 0, errEmpty
	}
	t := Type(data[0])
	if t == 0 || t >= maxType {
		return nil, 0, fmt.Errorf("wire: unknown message type %d", data[0])
	}
	c := &s.c
	*c = coder{mode: decoding, b: data, n: 1, s: s, alias: alias}
	m := decoders[t](c)
	off, err := c.n, c.err
	*c = coder{}
	if err != nil {
		return nil, 0, fmt.Errorf("wire: decoding %v: %w", t, err)
	}
	return m, off, nil
}

var errEmpty = fmt.Errorf("wire: empty buffer")

// decoders[t] decodes the body of a type-t message by walking a zero
// message's code with a decoding coder.
var decoders [maxType]func(*coder) Msg

// Scratch is the slice arena of one inbound stream decoded with DecodeInto.
// Each kind of slice is carved from an append-only chunk that is replaced,
// never grown or rewritten, when it runs out: what was carved belongs to the
// message it went into. The zero value is ready to use; a Scratch must not
// be shared between goroutines.
type Scratch struct {
	c       coder // the decoding coder; c.s points back here
	cmds    []kvstore.Command
	ids     []ids.ID
	refs    []InstRef
	entries []SlotEntry
	p1bs    []P1b
}

// arenaChunk is the element count of a fresh Scratch chunk: 28 KiB of
// commands (still a size-classed allocation), one per 512 single-command
// messages.
const arenaChunk = 512

// noScratch is the Scratch of every sizing and encoding coder, so that
// &c.s.cmds is always addressable; only decoding carves.
var noScratch Scratch

// carve returns n zeroed elements for a decoded slice: the next n of the
// arena chunk *a when aliasing, a fresh slice when copying.
func carve[T any](c *coder, a *[]T, n int) []T {
	if !c.alias {
		return make([]T, n)
	}
	if cap(*a)-len(*a) < n {
		*a = make([]T, 0, max(arenaChunk, n))
	}
	end := len(*a) + n
	*a = (*a)[:end]
	return (*a)[end-n : end : end]
}

// ---------------------------------------------------------------- coder --

var le = binary.LittleEndian

// mode is what a coder does with each field a message walks.
type mode uint8

// Primitives test for decoding first: the live transport decodes every frame
// through the coder, while P2a, the one hot encoder, is written by hand.
const (
	sizing   mode = iota // add the field's encoded length to n
	encoding             // append the field to b
	decoding             // read the field from b at offset n into the message
)

// coder is the one serializer. A message's code method hands it a pointer
// to each field in wire order; the mode decides whether the field is
// counted, written or read. Decoding reads into a zero message, so a field
// the coder never reaches (after a short buffer) stays zero.
type coder struct {
	b     []byte   // encoding: the output; decoding: the input
	n     int      // sizing: bytes counted; decoding: read offset into b
	err   error    // decoding: the first failure
	s     *Scratch // decoding: the Scratch holding this coder, c == &c.s.c
	mode  mode
	alias bool // decoding: byte strings alias b, slices come from s
}

// sizer and encoder start a coder in sizing mode and in encoding mode onto b.
func sizer() coder           { return coder{s: &noScratch} }
func encoder(b []byte) coder { return coder{mode: encoding, b: b, s: &noScratch} }

// fail records a short buffer at the read offset, unless an earlier failure
// is on record. Decoding goes on reading where it can, but the message is
// discarded.
func (c *coder) fail() {
	if c.err == nil {
		c.err = fmt.Errorf("short buffer at offset %d", c.n)
	}
}

func (c *coder) u8(v *uint8) {
	if c.mode == decoding {
		if c.n+1 > len(c.b) {
			c.fail()
			return
		}
		*v = c.b[c.n]
		c.n++
		return
	}
	if c.mode == encoding {
		c.b = append(c.b, *v)
		return
	}
	c.n++
}

func (c *coder) u16(v *uint16) {
	if c.mode == decoding {
		if c.n+2 > len(c.b) {
			c.fail()
			return
		}
		*v = le.Uint16(c.b[c.n:])
		c.n += 2
		return
	}
	if c.mode == encoding {
		c.b = le.AppendUint16(c.b, *v)
		return
	}
	c.n += 2
}

func (c *coder) u32(v *uint32) {
	if c.mode == decoding {
		if c.n+4 > len(c.b) {
			c.fail()
			return
		}
		*v = le.Uint32(c.b[c.n:])
		c.n += 4
		return
	}
	if c.mode == encoding {
		c.b = le.AppendUint32(c.b, *v)
		return
	}
	c.n += 4
}

func (c *coder) u64(v *uint64) {
	if c.mode == decoding {
		if c.n+8 > len(c.b) {
			c.fail()
			return
		}
		*v = le.Uint64(c.b[c.n:])
		c.n += 8
		return
	}
	if c.mode == encoding {
		c.b = le.AppendUint64(c.b, *v)
		return
	}
	c.n += 8
}

func (c *coder) id(v *ids.ID)         { c.u32((*uint32)(v)) }
func (c *coder) ballot(v *ids.Ballot) { c.u64((*uint64)(v)) }

// boolean is one byte, 1 for true; any non-zero byte decodes as true.
func (c *coder) boolean(v *bool) {
	var u uint8
	if *v {
		u = 1
	}
	c.u8(&u)
	*v = u != 0
}

// duration is a uint64 count of nanoseconds.
func (c *coder) duration(v *time.Duration) {
	u := uint64(*v)
	c.u64(&u)
	*v = time.Duration(u)
}

// bytes is a uint32 length and that many bytes.
func (c *coder) bytes(v *[]byte) {
	if c.mode == decoding {
		if c.n+4 > len(c.b) {
			c.fail()
			return
		}
		k := int(le.Uint32(c.b[c.n:]))
		c.n += 4
		end := c.n + k
		if end > len(c.b) {
			c.fail()
			return
		}
		if k > 0 { // an empty string stays nil
			*v = c.b[c.n:end:end]
			if !c.alias {
				*v = append(make([]byte, 0, k), *v...)
			}
		}
		c.n = end
		return
	}
	if c.mode == encoding {
		c.b = le.AppendUint32(c.b, uint32(len(*v)))
		c.b = append(c.b, *v...)
		return
	}
	c.n += 4 + len(*v)
}

// list walks the uint16 count of the list *v and returns the elements to
// walk next: *v, which decoding first carves from the arena a. A count beyond
// uint16 is a bug upstream (paxos clamps MaxBatchSize) and panics rather than
// corrupt the frame. Decoding checks the count against the bytes left, at
// `least` bytes an element, before it carves: a corrupt count cannot make it
// allocate more than the input could hold.
func list[T any](c *coder, v *[]T, a *[]T, least int, what string) []T {
	if c.mode == decoding {
		if c.n+2 > len(c.b) {
			c.fail()
			return nil
		}
		k := int(le.Uint16(c.b[c.n:]))
		c.n += 2
		if k == 0 || c.err != nil {
			return nil
		}
		if c.n+least*k > len(c.b) {
			c.fail()
			return nil
		}
		*v = carve(c, a, k)
		return *v
	}
	if c.mode == encoding {
		checkCount(len(*v), what)
		c.b = le.AppendUint16(c.b, uint16(len(*v)))
		return *v
	}
	c.n += 2
	return *v
}

// checkCount panics on a list too long for its uint16 count (see list).
func checkCount(n int, what string) {
	if n > math.MaxUint16 {
		panic(fmt.Sprintf("wire: %s of %d exceeds uint16 count", what, n))
	}
}

func (c *coder) ids(v *[]ids.ID) {
	for i := range list(c, v, &c.s.ids, minID, "ID list") {
		c.id(&(*v)[i])
	}
}

func (c *coder) cmds(v *[]kvstore.Command) {
	batch := list(c, v, &c.s.cmds, minCmd, "command batch")
	if c.mode == sizing {
		c.n += szCmds(batch)
		return
	}
	for i := range batch {
		c.cmd(&batch[i])
	}
}

// szCmds is what the commands of a batch add to an empty batch: a command's
// value is its only part of varying length.
func szCmds(v []kvstore.Command) int {
	n := minCmd * len(v)
	for i := range v {
		n += len(v[i].Value)
	}
	return n
}

func (c *coder) refs(v *[]InstRef) {
	for i := range list(c, v, &c.s.refs, minRef, "instance-ref list") {
		(*v)[i].code(c)
	}
}

func (c *coder) entries(v *[]SlotEntry) {
	for i := range list(c, v, &c.s.entries, minEntry, "slot-entry list") {
		(*v)[i].code(c)
	}
}

func (c *coder) p1bs(v *[]P1b) {
	for i := range list(c, v, &c.s.p1bs, minP1b, "P1b list") {
		(*v)[i].code(c)
	}
}

// cmd is a client command, the unit of every batch.
func (c *coder) cmd(v *kvstore.Command) {
	c.u8((*uint8)(&v.Op))
	c.u64(&v.Key)
	c.bytes(&v.Value)
	c.u64(&v.ClientID)
	c.u64(&v.Seq)
}

// The smallest encoding of each list element (every list and byte string in
// it empty), which bounds a decoded count: the sizing walk of a zero value.
var (
	minID    = sizeOf(func(c *coder) { var v ids.ID; c.id(&v) })
	minCmd   = sizeOf(func(c *coder) { var v kvstore.Command; c.cmd(&v) })
	minRef   = sizeOf(func(c *coder) { var v InstRef; v.code(c) })
	minEntry = sizeOf(func(c *coder) { var v SlotEntry; v.code(c) })
	minP1b   = sizeOf(func(c *coder) { var v P1b; v.code(c) })
)

func sizeOf(walk func(*coder)) int {
	c := sizer()
	walk(&c)
	return c.n
}
