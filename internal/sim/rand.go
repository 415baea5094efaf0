package sim

import (
	"math"
	"math/rand"
)

// Source is a deterministic random source with support for deriving
// independent child streams. Components of the simulator (network noise,
// per-node telemetry noise, workload generation, ...) each derive their own
// stream so that adding a random draw in one component does not perturb the
// sequence seen by another.
type Source struct {
	seed int64
	rng  *rand.Rand
}

// Seed returns the seed the source was rooted at. Components that need
// many cheap deterministic draws (per node × tick telemetry noise) hash
// this seed directly instead of deriving a child stream per draw.
func (s *Source) Seed() int64 { return s.seed }

// Hash64 mixes the source's seed with the given words into a uniform
// 64-bit value. It is pure: the same inputs always produce the same
// output, independent of any draws made from the source.
func (s *Source) Hash64(words ...uint64) uint64 {
	return s.HashPrefix(words...).Sum64()
}

// HashState is a Hash64 computation stopped part-way: the seed and a
// prefix of the words have been absorbed, the rest have not. A caller
// that hashes many word tuples sharing a prefix (the telemetry sampler
// hashes counter, node, tick for every sample, and the counter takes
// only 90 values) computes the prefix state once and finishes it per
// tuple. For any split of the words,
//
//	s.HashPrefix(a, b).Mix(c).Sum64() == s.Hash64(a, b, c)
//
// so a prefixed hash draws exactly the bits the one-shot form draws. A
// HashState is a plain value: pure, comparable, and free to copy.
type HashState uint64

// HashPrefix absorbs the source's seed and the given words, one
// splitmix64 round per word, and returns the state for Mix, Sum64 or
// Unit to continue from. It is pure, like Hash64.
func (s *Source) HashPrefix(words ...uint64) HashState {
	h := uint64(s.seed)
	for _, w := range words {
		h = splitmix64(h ^ w)
	}
	return HashState(h)
}

// Mix absorbs one more word (one splitmix64 round) and returns the new
// state; the receiver is unchanged.
func (h HashState) Mix(w uint64) HashState { return HashState(splitmix64(uint64(h) ^ w)) }

// Sum64 finishes the hash with the final splitmix64 round and returns
// the value Hash64 returns for the words absorbed so far.
func (h HashState) Sum64() uint64 { return splitmix64(uint64(h)) }

// Unit finishes the hash and maps it to a uniform float in [0, 1),
// exactly as HashUnit does for the words absorbed so far.
func (h HashState) Unit() float64 { return float64(h.Sum64()>>11) / float64(1<<53) }

// HashUnit maps Hash64 to a uniform float in [0, 1).
func (s *Source) HashUnit(words ...uint64) float64 {
	return s.HashPrefix(words...).Unit()
}

// HashNormal maps Hash64 to a draw from N(mu, sigma^2) via the
// Box–Muller transform on two uniforms expanded from the hash. Like
// Hash64 it is pure, so hot paths that need one Gaussian per entity
// (per-job placement jitter) use it instead of seeding a full child
// stream per entity, which costs a generator-table fill and its
// allocation per call.
func (s *Source) HashNormal(mu, sigma float64, words ...uint64) float64 {
	h := s.Hash64(words...)
	u1 := float64(splitmix64(h)>>11) / float64(1<<53)
	u2 := float64(splitmix64(h^0x9e3779b97f4a7c15)>>11) / float64(1<<53)
	// 1-u1 lies in (0, 1], keeping the log finite.
	z := math.Sqrt(-2*math.Log(1-u1)) * math.Cos(2*math.Pi*u2)
	return mu + sigma*z
}

// HashLogNormal returns a draw whose logarithm is N(mu, sigma^2),
// derived purely from the hash of the given words (see HashNormal).
func (s *Source) HashLogNormal(mu, sigma float64, words ...uint64) float64 {
	return math.Exp(s.HashNormal(mu, sigma, words...))
}

// NewSource returns a source rooted at seed.
func NewSource(seed int64) *Source {
	return &Source{seed: seed, rng: rand.New(rand.NewSource(int64(splitmix64(uint64(seed)))))}
}

// Derive returns an independent child stream identified by name. Deriving
// the same name from the same source always yields an identical stream.
func (s *Source) Derive(name string) *Source {
	h := uint64(s.seed)
	for _, c := range []byte(name) {
		h = splitmix64(h ^ uint64(c))
	}
	return NewSource(int64(h))
}

// DeriveN returns an independent child stream identified by name and an
// integer (e.g. a node or job index).
func (s *Source) DeriveN(name string, n int) *Source {
	h := uint64(s.seed)
	for _, c := range []byte(name) {
		h = splitmix64(h ^ uint64(c))
	}
	h = splitmix64(h ^ uint64(n)*0x9e3779b97f4a7c15)
	return NewSource(int64(h))
}

// splitmix64 is the SplitMix64 mixing function; it turns correlated seeds
// into well-distributed ones.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	z := x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform draw in [0, 1).
func (s *Source) Float64() float64 { return s.rng.Float64() }

// Intn returns a uniform draw in [0, n).
func (s *Source) Intn(n int) int { return s.rng.Intn(n) }

// Int63 returns a non-negative 63-bit integer.
func (s *Source) Int63() int64 { return s.rng.Int63() }

// Perm returns a pseudo-random permutation of [0, n).
func (s *Source) Perm(n int) []int { return s.rng.Perm(n) }

// PermInto fills buf with a pseudo-random permutation of [0, len(buf)),
// drawing exactly the sequence Perm(len(buf)) draws (the Fisher–Yates
// inside-out construction math/rand uses). Hot paths call it with a
// reusable buffer to stay allocation-free without perturbing the stream:
// after PermInto(buf) the source is in the same state as after
// Perm(len(buf)).
func (s *Source) PermInto(buf []int) {
	for i := range buf {
		j := s.rng.Intn(i + 1)
		buf[i] = buf[j]
		buf[j] = i
	}
}

// Shuffle pseudo-randomizes the order of n elements using swap.
func (s *Source) Shuffle(n int, swap func(i, j int)) { s.rng.Shuffle(n, swap) }

// Normal returns a draw from N(mu, sigma^2).
func (s *Source) Normal(mu, sigma float64) float64 {
	return mu + sigma*s.rng.NormFloat64()
}

// LogNormal returns a draw whose logarithm is N(mu, sigma^2).
func (s *Source) LogNormal(mu, sigma float64) float64 {
	return math.Exp(s.Normal(mu, sigma))
}

// Uniform returns a uniform draw in [lo, hi).
func (s *Source) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*s.rng.Float64()
}

// Exponential returns a draw from an exponential distribution with the
// given mean.
func (s *Source) Exponential(mean float64) float64 {
	return s.rng.ExpFloat64() * mean
}

// Bool returns true with probability p.
func (s *Source) Bool(p float64) bool { return s.rng.Float64() < p }

// Rand exposes the underlying *rand.Rand for callers that need the full
// math/rand API (e.g. rand.Shuffle adapters).
func (s *Source) Rand() *rand.Rand { return s.rng }
