// Package sessions is the at-most-once client table the Paxos family and
// EPaxos share. Every replica executes every command, so a table fed by
// execution replicates without messages of its own (Ongaro's thesis, §6.3): a
// retry that reaches another node finds its command executed there too, and a
// command that reached the log twice is skipped on every replica.
//
// A client is its newest executed sequence number, that command's reply, and
// the exact set of seqs it executed inside Window below the newest — not a
// high-water mark: a leader admits a pipelined client's commands out of order
// when it sheds some, and EPaxos executes one client's non-interfering
// commands in different orders on different replicas. Executing S forgets
// everything at or below S−Window, so for a client whose seqs in flight span
// at most Window every execution order gives the same verdicts and bytes.
package sessions

import (
	"encoding/binary"
	"fmt"
	"slices"

	"pigpaxos/internal/wire"
)

// Window is how many seqs, counting down from a client's newest executed
// one, the table remembers exactly. A request below it is Stale: the client
// went on more than Window commands past it, which its own window forbids.
const Window = 256

// Verdict is what admission makes of a request.
type Verdict uint8

const (
	Fresh    Verdict = iota // neither executed nor admitted here: admit it
	Pending                 // admitted here, not executed: refresh its reply route
	Executed                // answer it from the cache, when there is a reply to send
	Stale                   // below the window, where nothing is known: drop it
)

// Table is one replica's session table. Client 0 has no session: every
// command it sends is fresh.
type Table struct {
	clients map[uint64]*client
}

type client struct {
	newest   uint64
	reply    wire.Reply          // newest's
	done     [Window / 64]uint64 // bit s%Window set: s in (newest−Window, newest] executed
	admitted []uint64            // admitted here, not executed yet
}

// New returns an empty table.
func New() *Table { return &Table{clients: make(map[uint64]*client)} }

func (c *client) stale(seq uint64) bool { return c.newest >= Window && seq <= c.newest-Window }

func (c *client) has(seq uint64) bool {
	return seq <= c.newest && !c.stale(seq) && c.done[seq%Window/64]&(1<<(seq%64)) != 0
}

func (c *client) mark(seq uint64) { c.done[seq%Window/64] |= 1 << (seq % 64) }

// cached is the reply cell for seq when seq is the newest executed.
func (c *client) cached(seq uint64) *wire.Reply {
	if seq != c.newest {
		return nil
	}
	return &c.reply
}

func (t *Table) client(id uint64) *client {
	c := t.clients[id]
	if c == nil {
		c = &client{}
		t.clients[id] = c
	}
	return c
}

// Admit is what the table makes of a request for seq from clientID, with the
// cached reply to answer it when it is Executed and the client's newest.
func (t *Table) Admit(clientID, seq uint64) (Verdict, *wire.Reply) {
	c := t.clients[clientID]
	switch {
	case c == nil:
		return Fresh, nil
	case c.stale(seq):
		return Stale, nil
	case c.has(seq):
		return Executed, c.cached(seq)
	case slices.Contains(c.admitted, seq):
		return Pending, nil
	}
	return Fresh, nil
}

// MarkAdmitted records that seq from clientID entered this replica's
// pipeline. Call it only once admission control has let the command in: a
// command shed with Busy consumed nothing, and its retry is Fresh.
func (t *Table) MarkAdmitted(clientID, seq uint64) {
	if clientID == 0 {
		return
	}
	if c := t.client(clientID); !slices.Contains(c.admitted, seq) {
		c.admitted = append(c.admitted, seq)
	}
}

// Execute records that seq from clientID executed and reports whether it is
// fresh; false means it executed before and must not be applied again. A seq
// below the window is fresh: nothing is known of it, on any replica. reply is
// the client's cached reply cell when seq is its newest executed seq, nil
// otherwise; for a fresh seq the caller fills it in.
func (t *Table) Execute(clientID, seq uint64) (reply *wire.Reply, fresh bool) {
	if clientID == 0 {
		return nil, true
	}
	c := t.client(clientID)
	switch {
	case c.stale(seq):
		return nil, true
	case seq > c.newest:
		// Every seq passed over retires the one Window below it, whose bit
		// it takes; seq's own bit is set below.
		lo := c.newest + 1
		if seq-lo >= Window {
			lo = seq - Window + 1
		}
		for s := lo; s < seq; s++ {
			c.done[s%Window/64] &^= 1 << (s % 64)
		}
		c.newest = seq
		fresh = true
	default:
		fresh = !c.has(seq)
	}
	c.mark(seq)
	kept := c.admitted[:0]
	for _, s := range c.admitted {
		if s != seq && !c.stale(s) {
			kept = append(kept, s)
		}
	}
	c.admitted = kept
	return c.cached(seq), fresh
}

// EncodedSize is the number of bytes Encode appends.
func (t *Table) EncodedSize() int {
	n := 4
	for _, c := range t.clients {
		if c.newest > 0 {
			n += 8 + 8 + 8*len(c.done) + 4 + 1 + c.reply.Size()
		}
	}
	return n
}

// Encode appends the table's snapshot section: every client that executed
// something, sorted by ID, with its newest seq, executed set and cached
// reply. What is admitted but not executed is this replica's own and stays
// out, so replicas that executed the same commands write the same bytes.
func (t *Table) Encode(b []byte) []byte {
	ids := make([]uint64, 0, len(t.clients))
	for id, c := range t.clients {
		if c.newest > 0 {
			ids = append(ids, id)
		}
	}
	slices.Sort(ids)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(ids)))
	for _, id := range ids {
		c := t.clients[id]
		b = binary.LittleEndian.AppendUint64(b, id)
		b = binary.LittleEndian.AppendUint64(b, c.newest)
		for _, w := range c.done {
			b = binary.LittleEndian.AppendUint64(b, w)
		}
		at := len(b) // the reply's length, backpatched
		b = wire.Encode(append(b, 0, 0, 0, 0), &c.reply)
		binary.LittleEndian.PutUint32(b[at:], uint32(len(b)-at-4))
	}
	return b
}

// Decode parses a section Encode wrote and returns the table and the bytes
// it took. highWater reads the older layout that kept only each client's
// newest seq and reply: every seq at or below the newest counts as executed.
// The bytes may come from a peer, so no count sizes an allocation before it
// is checked against the bytes that remain.
func Decode(data []byte, highWater bool) (*Table, int, error) {
	off := 0
	fail := func(what string) (*Table, int, error) {
		return nil, 0, fmt.Errorf("sessions: %s at offset %d", what, off)
	}
	fixed := 8 + 8 + 8*Window/64 + 4 // ID, newest, executed set, reply length
	if highWater {
		fixed = 8 + 8 + 4
	}
	if len(data) < 4 {
		return fail("truncated count")
	}
	n := int(binary.LittleEndian.Uint32(data))
	off = 4
	if n > (len(data)-off)/fixed {
		return fail("count beyond the data")
	}
	t := &Table{clients: make(map[uint64]*client, n)}
	for i := 0; i < n; i++ {
		if off+fixed > len(data) {
			return fail("truncated session")
		}
		id := binary.LittleEndian.Uint64(data[off:])
		c := &client{newest: binary.LittleEndian.Uint64(data[off+8:])}
		off += 16
		if highWater {
			for s := c.newest; s > 0 && !c.stale(s); s-- {
				c.mark(s)
			}
		} else {
			for w := range c.done {
				c.done[w] = binary.LittleEndian.Uint64(data[off:])
				off += 8
			}
		}
		replyLen := int(binary.LittleEndian.Uint32(data[off:]))
		off += 4
		if replyLen > len(data)-off {
			return fail("truncated reply")
		}
		m, used, err := wire.Decode(data[off : off+replyLen])
		if err != nil {
			return nil, 0, fmt.Errorf("sessions: reply at offset %d: %w", off, err)
		}
		reply, ok := m.(wire.Reply)
		if !ok || used != replyLen {
			return fail("malformed reply")
		}
		off += replyLen
		if t.clients[id] != nil {
			return fail("client listed twice")
		}
		if c.reply = reply; c.newest > 0 { // the older layout listed clients that had executed nothing
			t.clients[id] = c
		}
	}
	return t, off, nil
}
