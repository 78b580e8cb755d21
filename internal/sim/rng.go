package sim

import (
	"hash/fnv"
	"math/rand"
)

// SeedSpace derives independent, reproducible random streams from one master
// seed. Stream identity is by name, so adding or removing streams never
// perturbs the sequences of the others — a property the experiment harness
// relies on when comparing protocol variants on "the same" channel.
//
// A SeedSpace and the streams it hands out are single-goroutine state, like
// the Simulator they feed. Concurrent simulations each build their own
// SeedSpace from their own master seed (the experiment runner's per-run
// isolation); nothing here is shared between runs.
type SeedSpace struct {
	master  uint64
	streams map[string]*Rand
}

// NewSeedSpace returns a seed space rooted at master.
func NewSeedSpace(master uint64) *SeedSpace {
	return &SeedSpace{master: master, streams: make(map[string]*Rand)}
}

// Stream returns the stream for name, creating it on first use.
func (ss *SeedSpace) Stream(name string) *Rand {
	if r, ok := ss.streams[name]; ok {
		return r
	}
	h := fnv.New64a()
	h.Write([]byte(name))
	seed := splitmix64(ss.master ^ h.Sum64())
	r := NewRand(seed)
	ss.streams[name] = r
	return r
}

// splitmix64 is the finalizer from Vigna's SplitMix64; it decorrelates
// related seeds (master ^ hash collisions of nearby names).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Rand is a deterministic random stream with the distributions the
// simulator's models need. It wraps math/rand.Rand (stdlib) seeded through
// SplitMix64.
type Rand struct {
	*rand.Rand
	counted *countingSource // nil for ordinary (un-snapshotable) streams
}

// NewRand returns a stream seeded with seed.
func NewRand(seed uint64) *Rand {
	return &Rand{Rand: rand.New(rand.NewSource(int64(splitmix64(seed))))}
}

// countingSource wraps the stdlib source and counts state-advancing draws,
// so a counted Rand's position in its stream is (seed, draws) — the whole
// state the estimator snapshot/restore path needs. It deliberately does NOT
// implement rand.Source64: math/rand then derives Uint64 from two Int63
// calls, so every state transition funnels through Int63 and one counter
// fully determines the stream position.
type countingSource struct {
	src   rand.Source
	seed  uint64
	draws uint64
}

func (s *countingSource) Int63() int64 {
	s.draws++
	return s.src.Int63()
}

func (s *countingSource) Seed(seed int64) {
	s.src.Seed(seed)
	s.draws = 0
}

// NewCountedRand returns a stream that yields exactly the values of
// NewRand(seed) for every Int63-derived draw (Float64, Intn, Normal, Exp,
// Bernoulli, ... — everything the estimators use) while tracking its draw
// position, so SnapshotState can serialize it and RestoreCountedRand can
// rebuild it mid-stream. Long-running estimator instances (internal/serve)
// are built over counted streams; simulation streams stay uncounted and pay
// nothing.
func NewCountedRand(seed uint64) *Rand {
	cs := &countingSource{src: rand.NewSource(int64(splitmix64(seed))), seed: seed}
	return &Rand{Rand: rand.New(cs), counted: cs}
}

// RestoreCountedRand returns a counted stream fast-forwarded to the given
// draw position: it is bit-identical, draw for draw, to NewCountedRand(seed)
// after draws state advances. Replay cost is one source step per draw
// (~ns); estimator streams advance only on admission decisions, so
// positions stay small.
func RestoreCountedRand(seed uint64, draws uint64) *Rand {
	r := NewCountedRand(seed)
	for i := uint64(0); i < draws; i++ {
		r.counted.src.Int63()
	}
	r.counted.draws = draws
	return r
}

// SnapshotState reports the stream's seed and draw position. ok is false
// for streams not built with NewCountedRand/RestoreCountedRand — their
// position is unobservable and they cannot be snapshotted.
func (r *Rand) SnapshotState() (seed, draws uint64, ok bool) {
	if r.counted == nil {
		return 0, 0, false
	}
	return r.counted.seed, r.counted.draws, true
}

// Bernoulli returns true with probability p (clamped to [0,1]).
func (r *Rand) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Uniform returns a sample from U[lo, hi).
func (r *Rand) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// UniformTime returns a Time sampled from U[lo, hi).
func (r *Rand) UniformTime(lo, hi Time) Time {
	if hi <= lo {
		return lo
	}
	return lo + Time(r.Int63n(int64(hi-lo)))
}

// Normal returns a sample from N(mean, sigma^2).
func (r *Rand) Normal(mean, sigma float64) float64 {
	return mean + sigma*r.NormFloat64()
}

// Exp returns an exponentially distributed sample with the given mean.
func (r *Rand) Exp(mean float64) float64 {
	return r.ExpFloat64() * mean
}

// ExpTime returns an exponentially distributed Time with the given mean.
func (r *Rand) ExpTime(mean Time) Time {
	return Time(r.ExpFloat64() * float64(mean))
}
