package main

import (
	"testing"
	"time"
)

// TestGeneratorAgainstEcho drives both loops of the generator against the
// echo server: every op must be acknowledged and every read must return the
// session's last write. It asserts no timing.
func TestGeneratorAgainstEcho(t *testing.T) {
	e, err := startEcho()
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	w, err := findWorkload("tcp5-pig")
	if err != nil {
		t.Fatal(err)
	}
	g, err := dialGenerator(e.ln.Addr().String(), w, 1, clientBase, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer g.close()
	pre, err := g.preload()
	if err != nil {
		t.Fatal(err)
	}
	closed := g.closedLoop(100 * time.Millisecond)
	open := g.openLoop(100*time.Millisecond, 2000, 7)
	ver, err := g.verify()
	if err != nil {
		t.Fatal(err)
	}
	for name, p := range map[string]phase{"preload": pre, "closed": closed, "open": open, "verify": ver} {
		if p.failed != 0 || p.issued == 0 || len(p.samples) != p.issued {
			t.Errorf("%s: issued %d, acked %d, failed %d", name, p.issued, len(p.samples), p.failed)
		}
	}
	if len(open.lateness) != open.issued || len(open.dues) != open.issued {
		t.Errorf("open loop: %d lateness readings for %d requests", len(open.lateness), open.issued)
	}
	if v := g.violationList(); len(v) > 0 {
		t.Errorf("violations: %v", v)
	}
}

// TestGeneratorCatchesAWrongValue makes the echo server lie once.
func TestGeneratorCatchesAWrongValue(t *testing.T) {
	e, err := startEcho()
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	w, _ := findWorkload("tcp5-pig")
	g, err := dialGenerator(e.ln.Addr().String(), w, 1, clientBase, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer g.close()
	if _, err := g.preload(); err != nil {
		t.Fatal(err)
	}
	e.mu.Lock()
	e.data[3] = makeValue(w.valueSize, 0xbad)
	e.mu.Unlock()
	ver, err := g.verify()
	if err != nil {
		t.Fatal(err)
	}
	if v := g.violationList(); ver.failed != 1 || len(v) != 1 {
		t.Errorf("verify after corrupting key 3: %d failed, violations %v; want exactly one", ver.failed, v)
	}
}

// TestClusterGate runs a small durable cluster through set-up, a short
// closed loop and the quiesce gate, traced, and checks the gate passes and
// the trace joins.
func TestClusterGate(t *testing.T) {
	t.Setenv("TMPDIR", t.TempDir())
	w, _ := findWorkload("tcp3-wal-b16")
	tr := newTracer(w.n)
	run, _, pre, err := setupTCP(w, 1, tr)
	if err != nil {
		t.Fatal(err)
	}
	defer run.close()
	tr.on.Store(true)
	from := tr.now()
	fix := run.g.openLoop(200*time.Millisecond, 500, 9)
	to := tr.now()
	tr.on.Store(false)
	time.Sleep(20 * time.Millisecond)
	out := &result{}
	run.quiesce(out, pre, fix)
	if out.failed != 0 || len(out.violations) != 0 {
		t.Fatalf("gate: %d failed, violations %v", out.failed, out.violations)
	}
	budgets, skipped := joinStages(tr.gen.reqs, tr.nodes[0].spans, from, to)
	if len(budgets) != len(fix.samples) || skipped != 0 {
		t.Errorf("joined %d of %d requests, %d skipped", len(budgets), len(fix.samples), skipped)
	}
	for _, b := range budgets {
		if b.ingress < 0 || b.batchWait < 0 || b.replicate < 0 || b.applyReply < 0 || b.egress < 0 {
			t.Fatalf("negative stage in %+v", b)
		}
	}
	if u := loopUsage(tr.nodes[0].spans, from, to); u.walSync == 0 || u.send == 0 || u.self <= 0 {
		t.Errorf("leader loop usage %+v: want journal syncs, sends and self time", u)
	}
}
