// Package wire defines every protocol message exchanged in the repository
// and a compact hand-rolled binary codec for them. The same definitions
// serve both substrates: the live TCP transport frames and ships encoded
// bytes, while the discrete-event simulator passes messages by value and
// uses Size (the exact encoded length) to drive its per-byte CPU/network
// cost model.
//
// Encoding is little-endian with fixed-width integers and length-prefixed
// byte strings. Every message type registers a decoder in init; Decode
// dispatches on the one-byte type tag.
//
// The codec is built to be allocation-free on the steady-state hot path:
// Encode appends into a caller-owned buffer (GetBuf/PutBuf pool reusable
// scratch) and Decode draws its reader from a sync.Pool.
//
// Who owns decoded bytes depends on the entry point. Decode copies: every
// byte string and slice in the returned message is freshly allocated and
// the input may be reused at once (ReadFrame, WAL replay and snapshots rely
// on that). DecodeInto aliases: byte strings point into the input and
// slices are carved from the stream's Scratch, and both belong to the
// message from then on — the caller gives up the right to rewrite them.
package wire

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"

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

// readerPool recycles decode readers so Decode performs no bookkeeping
// allocation per message.
var readerPool = sync.Pool{New: func() any { return new(reader) }}

// Decode parses one message from data (as produced by Encode). It returns
// the message and the number of bytes consumed. All variable-length
// contents (command batches, values, ID lists) are freshly allocated and
// safe to retain; data may be rewritten as soon as Decode returns.
func Decode(data []byte) (Msg, int, error) {
	r := readerPool.Get().(*reader)
	m, n, err := r.decode(data, &noScratch)
	readerPool.Put(r)
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
	return s.rd.decode(data, s)
}

func (r *reader) decode(data []byte, s *Scratch) (Msg, int, error) {
	if len(data) == 0 {
		return nil, 0, errEmpty
	}
	t := Type(data[0])
	if t == 0 || t >= maxType {
		return nil, 0, fmt.Errorf("wire: unknown message type %d", data[0])
	}
	*r = reader{b: data, off: 1, s: s, alias: s != &noScratch}
	m := decoders[t](r)
	off, err := r.off, r.err
	*r = reader{}
	if err != nil {
		return nil, 0, fmt.Errorf("wire: decoding %v: %w", t, err)
	}
	return m, off, nil
}

var errEmpty = fmt.Errorf("wire: empty buffer")

var decoders [maxType]func(*reader) Msg

// Scratch is the slice arena of one inbound stream decoded with DecodeInto.
// Each kind of slice is carved from an append-only chunk that is replaced,
// never grown or rewritten, when it runs out: what was carved belongs to the
// message it went into. The zero value is ready to use; a Scratch must not
// be shared between goroutines.
type Scratch struct {
	rd      reader // spares DecodeInto the pool round trip
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

// noScratch stands in for the arena while Decode runs, so that &r.s.cmds is
// always addressable; carve returns before touching it.
var noScratch Scratch

// carve returns n zeroed elements for a decoded slice: the next n of the
// arena chunk *a when aliasing, a fresh slice when copying.
func carve[T any](r *reader, a *[]T, n int) []T {
	if !r.alias {
		return make([]T, n)
	}
	if cap(*a)-len(*a) < n {
		*a = make([]T, 0, max(arenaChunk, n))
	}
	end := len(*a) + n
	*a = (*a)[:end]
	return (*a)[end-n : end : end]
}

// ---- low-level encode/decode helpers ----

func putU16(b []byte, v uint16) []byte { return binary.LittleEndian.AppendUint16(b, v) }
func putU32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }
func putU64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }
func putBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}
func putBytes(b []byte, v []byte) []byte {
	b = putU32(b, uint32(len(v)))
	return append(b, v...)
}

// checkCount guards every uint16 entry count on the wire: overflowing
// counts are a bug upstream, and truncating silently would corrupt the
// frame (the decoder would misparse everything after the undercounted
// list).
func checkCount(n int, what string) {
	if n > math.MaxUint16 {
		panic(fmt.Sprintf("wire: %s of %d exceeds uint16 count", what, n))
	}
}

func putIDs(b []byte, v []ids.ID) []byte {
	checkCount(len(v), "ID list")
	b = putU16(b, uint16(len(v)))
	for _, id := range v {
		b = putU32(b, uint32(id))
	}
	return b
}

const (
	szBool   = 1
	szU16    = 2
	szU32    = 4
	szU64    = 8
	szID     = 4
	szBallot = 8
)

func szBytes(v []byte) int { return szU32 + len(v) }
func szIDs(v []ids.ID) int { return szU16 + szID*len(v) }

type reader struct {
	b     []byte
	off   int
	err   error
	s     *Scratch // slice arena; &noScratch while copying
	alias bool     // DecodeInto: byte strings alias b, slices come from s
}

func (r *reader) fail() {
	if r.err == nil {
		r.err = fmt.Errorf("short buffer at offset %d", r.off)
	}
}

func (r *reader) u16() uint16 {
	if r.err != nil || r.off+2 > len(r.b) {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint16(r.b[r.off:])
	r.off += 2
	return v
}

func (r *reader) u32() uint32 {
	if r.err != nil || r.off+4 > len(r.b) {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v
}

func (r *reader) u64() uint64 {
	if r.err != nil || r.off+8 > len(r.b) {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v
}

func (r *reader) u8() uint8 {
	if r.err != nil || r.off+1 > len(r.b) {
		r.fail()
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

func (r *reader) boolean() bool {
	if r.err != nil || r.off+1 > len(r.b) {
		r.fail()
		return false
	}
	v := r.b[r.off] != 0
	r.off++
	return v
}

func (r *reader) bytes() []byte {
	n := int(r.u32())
	if r.err != nil || r.off+n > len(r.b) {
		r.fail()
		return nil
	}
	if n == 0 {
		return nil
	}
	src := r.b[r.off : r.off+n : r.off+n]
	r.off += n
	if r.alias {
		return src
	}
	return append(make([]byte, 0, n), src...)
}

func (r *reader) id() ids.ID         { return ids.ID(r.u32()) }
func (r *reader) ballot() ids.Ballot { return ids.Ballot(r.u64()) }

func (r *reader) idSlice() []ids.ID {
	n := int(r.u16())
	if r.err != nil || r.off+szID*n > len(r.b) {
		r.fail()
		return nil
	}
	if n == 0 {
		return nil
	}
	v := carve(r, &r.s.ids, n)
	for i := range v {
		v[i] = r.id()
	}
	return v
}

// szSlotEntryMin is the smallest possible encoded slot entry (empty
// batch), used to bound entry counts against the remaining buffer.
const szSlotEntryMin = szU64 + szBallot + szBool + szU16

// slotEntries decodes a count-prefixed slot-entry list (P1b, CatchupReply).
func (r *reader) slotEntries() []SlotEntry {
	n := int(r.u16())
	if r.err != nil || r.off+szSlotEntryMin*n > len(r.b) {
		r.fail()
		return nil
	}
	if n == 0 {
		return nil
	}
	v := carve(r, &r.s.entries, n)
	for i := 0; i < n && r.err == nil; i++ {
		v[i] = r.slotEntry()
	}
	return v
}

// szP1bMin is the smallest possible encoded P1b (no entries).
const szP1bMin = szBallot + szID + szU64 + szU16

// p1bs decodes a count-prefixed P1b list (AggP1b).
func (r *reader) p1bs() []P1b {
	n := int(r.u16())
	if r.err != nil || r.off+szP1bMin*n > len(r.b) {
		r.fail()
		return nil
	}
	if n == 0 {
		return nil
	}
	v := carve(r, &r.s.p1bs, n)
	for i := 0; i < n && r.err == nil; i++ {
		v[i] = r.p1b()
	}
	return v
}

func (r *reader) p1b() P1b {
	return P1b{Ballot: r.ballot(), From: r.id(), Floor: r.u64(), Entries: r.slotEntries()}
}

// ---- command encoding (shared by several messages) ----

func putCmd(b []byte, c kvstore.Command) []byte {
	b = append(b, byte(c.Op))
	b = putU64(b, c.Key)
	b = putBytes(b, c.Value)
	b = putU64(b, c.ClientID)
	b = putU64(b, c.Seq)
	return b
}

func szCmd(c kvstore.Command) int { return 1 + szU64 + szBytes(c.Value) + szU64 + szU64 }

// szCmdMin is the smallest possible encoded command (empty value), used to
// bound batch counts against the remaining buffer before allocating.
const szCmdMin = 1 + szU64 + szU32 + szU64 + szU64

// putCmds encodes a count-prefixed command batch. A one-element batch is the
// degenerate single-command case; protocols that never batch pay only the
// two-byte count. Batches beyond the uint16 count are a bug upstream
// (paxos clamps MaxBatchSize); truncating silently would corrupt the frame.
func putCmds(b []byte, v []kvstore.Command) []byte {
	checkCount(len(v), "command batch")
	b = putU16(b, uint16(len(v)))
	for _, c := range v {
		b = putCmd(b, c)
	}
	return b
}

func szCmds(v []kvstore.Command) int {
	n := szU16
	for _, c := range v {
		n += szCmd(c)
	}
	return n
}

func (r *reader) cmds() []kvstore.Command {
	n := int(r.u16())
	if r.err != nil || r.off+szCmdMin*n > len(r.b) {
		r.fail()
		return nil
	}
	if n == 0 {
		return nil
	}
	v := carve(r, &r.s.cmds, n)
	for i := range v {
		v[i] = r.cmd()
	}
	return v
}

func (r *reader) cmd() kvstore.Command {
	if r.err != nil || r.off+1 > len(r.b) {
		r.fail()
		return kvstore.Command{}
	}
	op := kvstore.Op(r.b[r.off])
	r.off++
	return kvstore.Command{
		Op:       op,
		Key:      r.u64(),
		Value:    r.bytes(),
		ClientID: r.u64(),
		Seq:      r.u64(),
	}
}
