// Package workload generates the paper's benchmark workloads: commands over
// a fixed key space (1000 distinct 8-byte keys by default) with a uniform or
// zipfian key distribution, a configurable read ratio (the paper's default
// is an even read/write mix, §5.2), and configurable value payload sizes
// (8 bytes by default, up to 1280 in the Figure 12 sweep).
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"pigpaxos/internal/kvstore"
)

// Distribution selects how keys are drawn.
type Distribution int

const (
	// Uniform draws every key with equal probability (the paper's
	// setting).
	Uniform Distribution = iota
	// Zipfian draws keys with a zipf(θ) skew, for hot-spot experiments.
	Zipfian
)

// String implements fmt.Stringer.
func (d Distribution) String() string {
	switch d {
	case Uniform:
		return "uniform"
	case Zipfian:
		return "zipfian"
	default:
		return fmt.Sprintf("Distribution(%d)", int(d))
	}
}

// ParseDistribution maps a flag value ("uniform", "zipfian") to its
// Distribution — the CLI surface for skewed-key sweeps (the shard scenario
// runs both to show hot-shard behavior).
func ParseDistribution(s string) (Distribution, error) {
	switch s {
	case "uniform":
		return Uniform, nil
	case "zipfian", "zipf":
		return Zipfian, nil
	default:
		return Uniform, fmt.Errorf("workload: unknown distribution %q (want uniform or zipfian)", s)
	}
}

// Config describes a workload.
type Config struct {
	// Keys is the number of distinct keys (default 1000).
	Keys int
	// ReadRatio is the fraction of GET operations (default 0.5).
	ReadRatio float64
	// PayloadSize is the value size in bytes for writes (default 8).
	PayloadSize int
	// Dist selects the key distribution.
	Dist Distribution
	// Theta is the zipfian skew parameter (default 0.99, YCSB-style).
	Theta float64

	// readRatioSet distinguishes an explicit 0 (write-only) from the
	// unset zero value; set via WriteOnly.
	readRatioSet bool
}

func (c *Config) applyDefaults() {
	if c.Keys == 0 {
		c.Keys = 1000
	}
	if c.ReadRatio == 0 && !c.readRatioSet {
		c.ReadRatio = 0.5
	}
	if c.PayloadSize == 0 {
		c.PayloadSize = 8
	}
	if c.Theta == 0 {
		c.Theta = 0.99
	}
}

// Validate fills unset fields with their defaults and rejects explicit
// values the generators would otherwise silently misbehave on: a ReadRatio
// outside [0,1] skews the mix without erroring, a non-positive key count
// panics deep inside rand.Intn, a negative payload panics in make, and a
// zipfian Theta outside (0,1) diverges the Gray sampler's normalization.
func (c *Config) Validate() error {
	c.applyDefaults()
	if c.Keys <= 0 {
		return fmt.Errorf("workload: non-positive key count %d", c.Keys)
	}
	if c.ReadRatio < 0 || c.ReadRatio > 1 {
		return fmt.Errorf("workload: read ratio %v outside [0,1]", c.ReadRatio)
	}
	if c.PayloadSize < 0 {
		return fmt.Errorf("workload: negative payload size %d", c.PayloadSize)
	}
	if c.Theta <= 0 || c.Theta >= 1 {
		return fmt.Errorf("workload: zipfian theta %v outside (0,1)", c.Theta)
	}
	return nil
}

// Generator produces commands for one client.
type Generator struct {
	cfg     Config
	rng     *rand.Rand
	zipf    *zipf
	payload []byte
}

// WriteOnly returns a copy of c that issues only writes (the paper's
// Figure 12 payload sweep uses a write-only workload).
func (c Config) WriteOnly() Config {
	c.ReadRatio = 0
	c.readRatioSet = true
	return c
}

// New creates a generator drawing randomness from rng (pass the simulation
// RNG for deterministic workloads). It panics on an invalid Config —
// callers with external input validate via Config.Validate first (the
// load-generator options path does).
func New(cfg Config, rng *rand.Rand) *Generator {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	g := &Generator{cfg: cfg, rng: rng}
	if cfg.Dist == Zipfian {
		g.zipf = newZipf(rng, cfg.Theta, uint64(cfg.Keys))
	}
	g.payload = make([]byte, cfg.PayloadSize)
	for i := range g.payload {
		g.payload[i] = byte(i)
	}
	return g
}

// Next produces the next command for the given client identity and sequence
// number. The returned command shares the generator's payload buffer, which
// is never rewritten: the state machine borrows it (see kvstore).
func (g *Generator) Next(clientID, seq uint64) kvstore.Command {
	key := g.key()
	if g.rng.Float64() < g.cfg.ReadRatio {
		return kvstore.Command{Op: kvstore.Get, Key: key, ClientID: clientID, Seq: seq}
	}
	return kvstore.Command{
		Op: kvstore.Put, Key: key, Value: g.payload,
		ClientID: clientID, Seq: seq,
	}
}

func (g *Generator) key() uint64 {
	if g.zipf != nil {
		return g.zipf.next()
	}
	return uint64(g.rng.Intn(g.cfg.Keys))
}

// Arrivals generates a Poisson arrival process at a fixed aggregate rate:
// successive Next calls return independent exponentially distributed
// inter-arrival gaps with mean 1/rate. An open-loop load tester schedules
// request number k at the sum of the first k gaps, regardless of how many
// earlier requests have completed — the arrival process the paper's §5.4
// overload experiments assume. Superposition makes the per-worker split
// exact: W independent Arrivals at rate/W each form a Poisson process at
// the full rate.
type Arrivals struct {
	rng  *rand.Rand
	mean float64 // seconds between arrivals
}

// NewArrivals creates a Poisson arrival generator at rate events/second
// drawing from rng. It panics on a non-positive rate.
func NewArrivals(rate float64, rng *rand.Rand) *Arrivals {
	if rate <= 0 {
		panic(fmt.Sprintf("workload: non-positive arrival rate %v", rate))
	}
	return &Arrivals{rng: rng, mean: 1 / rate}
}

// Next returns the gap until the next arrival.
func (a *Arrivals) Next() time.Duration {
	return time.Duration(a.rng.ExpFloat64() * a.mean * float64(time.Second))
}

// zipf implements the Gray et al. quick zipf sampler (the same construction
// YCSB uses), independent of math/rand.Zipf so the skew matches YCSB θ.
type zipf struct {
	rng             *rand.Rand
	n               uint64
	theta           float64
	alpha, zetan    float64
	eta, zetaTheta2 float64
}

func newZipf(rng *rand.Rand, theta float64, n uint64) *zipf {
	if n == 0 {
		n = 1
	}
	z := &zipf{rng: rng, n: n, theta: theta}
	z.zetan = zeta(n, theta)
	z.zetaTheta2 = zeta(2, theta)
	z.alpha = 1.0 / (1.0 - theta)
	z.eta = (1 - math.Pow(2.0/float64(n), 1-theta)) / (1 - z.zetaTheta2/z.zetan)
	return z
}

func zeta(n uint64, theta float64) float64 {
	var sum float64
	for i := uint64(1); i <= n; i++ {
		sum += 1.0 / math.Pow(float64(i), theta)
	}
	return sum
}

func (z *zipf) next() uint64 {
	u := z.rng.Float64()
	uz := u * z.zetan
	if uz < 1.0 {
		return 0
	}
	if uz < 1.0+math.Pow(0.5, z.theta) {
		return 1
	}
	return uint64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
}
