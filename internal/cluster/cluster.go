// Package cluster runs real TCP clusters of the repo's replicas — the
// sim-to-metal bridge. Member (member.go) is the one assembly of a running
// process's worth of replicas; two substrates run it behind one addressing
// scheme:
//
//   - InProc starts N Members inside the current process on ephemeral
//     127.0.0.1 ports. The public pigpaxos.Cluster and its clients and the
//     integration tests run on it: the real socket path (framing, shard
//     envelopes, reverse routes, writer goroutines) without process
//     management.
//   - Procs forks N pigserver processes, one Member each, in the style of
//     the go-paxos deploy/tester scripts — the substrate cmd/pigload's
//     -spawn mode benchmarks.
//
// Readiness is probed through the client path itself: a node is ready when
// it answers a Request, and the cluster is ready when a Get completes OK
// (some leader is committing). SyncClient (client.go) is the one
// synchronous client: the public pigpaxos.Client, probes, tests and
// cmd/pigclient all run a client.Session per shard with one command in
// flight, on a dial-only TCPNode of its own.
package cluster

import (
	"fmt"
	"net"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"pigpaxos/internal/config"
	"pigpaxos/internal/ids"
	"pigpaxos/internal/kvstore"
	"pigpaxos/internal/paxos"
	"pigpaxos/internal/protocol"
	"pigpaxos/internal/shard"
)

// ParseID parses Paxi's "zone.node" notation: two decimal numbers in
// 0..65535 and nothing else, not both zero (0.0 is the reserved "no node").
func ParseID(s string) (ids.ID, error) {
	zone, node, ok := strings.Cut(s, ".")
	z, zerr := strconv.ParseUint(zone, 10, 16)
	n, nerr := strconv.ParseUint(node, 10, 16)
	if !ok || zerr != nil || nerr != nil || z == 0 && n == 0 {
		return 0, fmt.Errorf("cluster: bad node ID %q (want zone.node, e.g. 1.2)", s)
	}
	return ids.NewID(int(z), int(n)), nil
}

// ParseAddrs parses a comma-separated "id=host:port" membership list into
// an address map and the sorted member list. The host may be empty (all
// interfaces, dialled as the local host); the port may not.
func ParseAddrs(s string) (map[ids.ID]string, []ids.ID, error) {
	addrs := make(map[ids.ID]string)
	var members []ids.ID
	for _, part := range strings.Split(s, ",") {
		kv := strings.SplitN(strings.TrimSpace(part), "=", 2)
		if len(kv) != 2 {
			return nil, nil, fmt.Errorf("cluster: bad entry %q (want id=host:port)", part)
		}
		id, err := ParseID(kv[0])
		if err != nil {
			return nil, nil, err
		}
		if _, dup := addrs[id]; dup {
			return nil, nil, fmt.Errorf("cluster: duplicate node %v", id)
		}
		if _, port, err := net.SplitHostPort(kv[1]); err != nil || port == "" {
			return nil, nil, fmt.Errorf("cluster: bad address %q for node %v (want host:port)", kv[1], id)
		}
		addrs[id] = kv[1]
		members = append(members, id)
	}
	if len(members) == 0 {
		return nil, nil, fmt.Errorf("cluster: empty membership list")
	}
	sort.Slice(members, func(i, j int) bool { return members[i] < members[j] })
	return addrs, members, nil
}

// FormatAddrs renders an address map back into ParseAddrs form, members in
// ascending ID order — the -cluster argument handed to spawned pigservers.
func FormatAddrs(addrs map[ids.ID]string) string {
	members := make([]ids.ID, 0, len(addrs))
	for id := range addrs {
		members = append(members, id)
	}
	sort.Slice(members, func(i, j int) bool { return members[i] < members[j] })
	parts := make([]string, 0, len(members))
	for _, id := range members {
		parts = append(parts, fmt.Sprintf("%s=%s", id, addrs[id]))
	}
	return strings.Join(parts, ",")
}

// Members returns the canonical member IDs of an n-node local cluster:
// 1.1 … 1.n. The lowest ID is the initial leader everywhere in this repo.
func Members(n int) []ids.ID {
	out := make([]ids.ID, 0, n)
	for i := 1; i <= n; i++ {
		out = append(out, ids.NewID(1, i))
	}
	return out
}

// FreePorts reserves a distinct ephemeral loopback port for each of
// members, releases them, and returns their addresses. The caller binds them
// shortly after; the window in which another process could steal one is
// accepted for a local test runner.
func FreePorts(members []ids.ID) (map[ids.ID]string, error) {
	addrs := make(map[ids.ID]string, len(members))
	for _, id := range members {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		defer ln.Close()
		addrs[id] = ln.Addr().String()
	}
	return addrs, nil
}

// ---------------------------------------------------------------- in-proc --

// InProc is a running in-process TCP cluster: one Member per member ID.
type InProc struct {
	Members []ids.ID
	Addrs   map[ids.ID]string
	// Plan is the shard layout: which members replicate which shard.
	Plan shard.Map

	kind    protocol.Kind
	members map[ids.ID]*Member // stopped ones too: their stores stay readable

	mu      sync.Mutex
	clients []*SyncClient // opened by Client; Close closes them
	closed  bool
}

// StartInProc boots an n-node cluster on ephemeral localhost ports, the key
// space split into shards groups laid out by shard.Plan (one or less is a
// single group over every member, led by the lowest ID), every replica
// built from tmpl as NewMember builds it. It returns once every replica has
// started on its event loop. Replicas start only after every member knows
// every address, so each shard's initial leader wins its first election.
func StartInProc(n, shards int, tmpl protocol.Spec) (*InProc, error) {
	if n < 1 {
		return nil, fmt.Errorf("cluster: need at least one node, got %d", n)
	}
	members := Members(n)
	c := &InProc{
		Members: members,
		Addrs:   make(map[ids.ID]string),
		Plan:    shard.Plan(config.Cluster{Nodes: members}, shards),
		kind:    tmpl.Kind,
		members: make(map[ids.ID]*Member),
	}
	for _, id := range members {
		m, err := NewMember(id, "127.0.0.1:0", nil, c.Plan, tmpl, "")
		if err != nil {
			c.Close()
			return nil, err
		}
		c.members[id] = m
		c.Addrs[id] = m.Node.Addr()
	}
	for _, m := range c.members {
		for id, a := range c.Addrs {
			m.Node.RegisterAddr(id, a)
		}
	}
	for _, m := range c.members {
		m.Start()
	}
	return c, nil
}

// Member returns a live member, nil once it is stopped or shut down.
func (c *InProc) Member(id ids.ID) *Member {
	if m := c.members[id]; m != nil && !m.closed.Load() {
		return m
	}
	return nil
}

// Store returns member id's state machine for shard k, or nil when id does
// not replicate k. A Store is safe to read from any goroutine.
func (c *InProc) Store(k int, id ids.ID) *kvstore.Store { return c.members[id].Replica(k).Store }

// onLoops runs fn(id) on the event loop of each live member among members
// and returns the answers that arrive within a second: a member stopped
// after the query was posted never answers.
func onLoops[T any](c *InProc, members []ids.ID, fn func(id ids.ID) T) map[ids.ID]T {
	type answer struct {
		id ids.ID
		v  T
	}
	ch := make(chan answer, len(members))
	pending := 0
	for _, id := range members {
		if m := c.Member(id); m != nil {
			pending++
			m.Node.After(0, func() { ch <- answer{id, fn(id)} })
		}
	}
	out := make(map[ids.ID]T, pending)
	deadline := time.After(time.Second)
	for ; pending > 0; pending-- {
		select {
		case a := <-ch:
			out[a.id] = a.v
		case <-deadline:
			return out
		}
	}
	return out
}

// Leader returns shard k's leader, or zero when no live member believes it
// leads (mid-election). Each member is asked on its own event loop; when
// views disagree transiently, the highest ballot wins. EPaxos is
// leaderless: every member accepts commands, and the first live one stands
// in.
func (c *InProc) Leader(k int) ids.ID {
	if k < 0 || k >= c.Plan.NumShards() {
		return 0
	}
	members := c.Plan.Shards[k].Members
	if c.kind == protocol.EPaxos {
		for _, id := range members {
			if c.Member(id) != nil {
				return id
			}
		}
		return 0
	}
	ballots := onLoops(c, members, func(id ids.ID) ids.Ballot {
		if core := c.members[id].Replica(k).Core; core.IsLeader() {
			return core.Ballot()
		}
		return 0
	})
	var best ids.ID
	for _, id := range members {
		if ballots[id] > ballots[best] {
			best = id
		}
	}
	return best
}

// Stats reads a live Paxos or PigPaxos member's shard-0 protocol counters,
// on the member's own event loop (the counters are the loop's). It reports
// false for a stopped or EPaxos member and for one outside shard 0.
func (c *InProc) Stats(id ids.ID) (paxos.Stats, bool) {
	core := c.members[id].Replica(0).Core
	if core == nil {
		return paxos.Stats{}, false
	}
	s, ok := onLoops(c, []ids.ID{id}, func(ids.ID) paxos.Stats { return core.Stats() })[id]
	return s, ok
}

// Stop kills one member: its listener and connections close and its event
// loop halts, exactly what the rest of the cluster observes when a process
// dies. The member cannot be restarted.
func (c *InProc) Stop(id ids.ID) {
	if m := c.members[id]; m != nil {
		m.Close()
	}
}

// Client opens a SyncClient on the cluster's shard layout. Each shard's
// session starts at the shard's planned leader; on leaderless EPaxos client
// i starts on member i mod N instead, so concurrent clients spread over the
// members. Close closes the client; after Close, Client fails.
func (c *InProc) Client(clientID uint64, timeout time.Duration) (*SyncClient, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, fmt.Errorf("cluster: closed")
	}
	start := 0
	if c.kind == protocol.EPaxos {
		start = int(clientID % uint64(len(c.Members)))
	}
	sc := dial(c.Addrs, c.Plan, clientID, timeout, start)
	c.clients = append(c.clients, sc)
	return sc, nil
}

// Close stops the clients Client opened and every member.
func (c *InProc) Close() {
	c.mu.Lock()
	c.closed = true
	clients := c.clients
	c.clients = nil
	c.mu.Unlock()
	for _, sc := range clients {
		sc.Close()
	}
	for _, id := range c.Members {
		c.Stop(id)
	}
}

// -------------------------------------------------------------- readiness --

// WaitReady blocks until every member answers the client path and a Get
// completes OK through redirect following (a leader is elected and
// committing), or the deadline passes. Probe commands run under throwaway
// client IDs high above any load generator's range.
func WaitReady(addrs map[ids.ID]string, members []ids.ID, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for _, id := range members {
		// A fresh client ID per probe: reusing one across WaitReady calls
		// would collide with the at-most-once session the last call left.
		probe := NewSyncClient(addrs, id, probeClientBase+probeCounter.Add(1), 500*time.Millisecond)
		for {
			rep, err := probe.Do(kvstore.Command{Op: kvstore.Get, Key: readinessKey})
			if err == nil && rep.OK {
				break
			}
			if time.Now().After(deadline) {
				probe.Close()
				if err == nil {
					err = fmt.Errorf("node answered but no leader is serving (reply %+v)", rep)
				}
				return fmt.Errorf("cluster: %v not ready: %w", id, err)
			}
			time.Sleep(50 * time.Millisecond)
		}
		probe.Close()
	}
	return nil
}

const (
	probeClientBase = uint64(1) << 62
	readinessKey    = ^uint64(0) // far outside any workload's key space
)

var probeCounter atomic.Uint64

// ------------------------------------------------------------- subprocess --

// ProcSpec configures a spawned multi-process cluster.
type ProcSpec struct {
	// N is the member count.
	N int
	// Protocol is paxos | pigpaxos | epaxos (forwarded to pigserver).
	Protocol string
	// Groups is the PigPaxos relay group count.
	Groups int
	// ServerBin is the pigserver binary to fork.
	ServerBin string
	// WALDir, when set, gives node i a durable journal in WALDir/node-i.
	WALDir string
	// ExtraArgs are appended to every pigserver command line.
	ExtraArgs []string
}

// Procs is a running set of pigserver processes.
type Procs struct {
	Members []ids.ID
	Addrs   map[ids.ID]string
	cmds    map[ids.ID]*exec.Cmd
}

// Launch forks one pigserver per member and returns without waiting for
// readiness (call WaitReady). On any spawn error the already-started
// children are killed.
func Launch(spec ProcSpec) (*Procs, error) {
	if spec.N < 1 {
		return nil, fmt.Errorf("cluster: need at least one node, got %d", spec.N)
	}
	if spec.ServerBin == "" {
		return nil, fmt.Errorf("cluster: ProcSpec.ServerBin is required")
	}
	members := Members(spec.N)
	addrs, err := FreePorts(members)
	if err != nil {
		return nil, err
	}
	p := &Procs{Members: members, Addrs: addrs, cmds: make(map[ids.ID]*exec.Cmd)}
	clusterArg := FormatAddrs(addrs)
	for i, id := range members {
		args := []string{
			"-id", id.String(),
			"-cluster", clusterArg,
			"-protocol", orDefault(spec.Protocol, "pigpaxos"),
		}
		if spec.Groups > 0 {
			args = append(args, "-groups", fmt.Sprint(spec.Groups))
		}
		if spec.WALDir != "" {
			args = append(args, "-wal-dir", fmt.Sprintf("%s/node-%d", spec.WALDir, i+1))
		}
		args = append(args, spec.ExtraArgs...)
		cmd := exec.Command(spec.ServerBin, args...)
		cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
		if err := cmd.Start(); err != nil {
			p.StopAll(0)
			return nil, fmt.Errorf("cluster: spawn %v: %w", id, err)
		}
		p.cmds[id] = cmd
	}
	return p, nil
}

func orDefault(s, d string) string {
	if s == "" {
		return d
	}
	return s
}

// Kill hard-kills one member (SIGKILL) and reaps it — the leader-crash
// experiment's hammer. The member stays in Addrs so clients keep probing
// its dead port, exactly as real clients would.
func (p *Procs) Kill(id ids.ID) error {
	cmd, ok := p.cmds[id]
	if !ok {
		return fmt.Errorf("cluster: no process for %v", id)
	}
	delete(p.cmds, id)
	if err := cmd.Process.Kill(); err != nil {
		return err
	}
	cmd.Wait()
	return nil
}

// StopAll SIGTERMs every child, waits up to grace for clean exits, then
// SIGKILLs stragglers. Always reaps.
func (p *Procs) StopAll(grace time.Duration) {
	for _, cmd := range p.cmds {
		cmd.Process.Signal(syscall.SIGTERM)
	}
	done := make(chan ids.ID, len(p.cmds))
	for id, cmd := range p.cmds {
		go func(id ids.ID, cmd *exec.Cmd) {
			cmd.Wait()
			done <- id
		}(id, cmd)
	}
	deadline := time.After(grace)
	remaining := len(p.cmds)
	for remaining > 0 {
		select {
		case <-done:
			remaining--
		case <-deadline:
			for _, cmd := range p.cmds {
				cmd.Process.Kill()
			}
			deadline = time.After(time.Minute) // reap after kill; never spin
		}
	}
	p.cmds = make(map[ids.ID]*exec.Cmd)
}
