// Package stats provides the deterministic random-number machinery,
// probability distributions and descriptive statistics used throughout the
// cellcurtain simulator and analysis pipeline.
//
// Everything in this package is deterministic given a seed: campaigns are
// reproducible run-to-run, which the benchmark harness relies on when
// regenerating the paper's tables and figures.
package stats

import "math"

// RNG is a small, fast, deterministic pseudo-random generator
// (splitmix64-seeded xoshiro256**). It is not safe for concurrent use;
// derive per-goroutine generators with Fork.
type RNG struct {
	s [4]uint64
}

// NewRNG returns a generator seeded from seed via splitmix64, so that
// nearby seeds produce uncorrelated streams.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	sm := seed
	next := func() uint64 {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	for i := range r.s {
		r.s[i] = next()
	}
	// xoshiro must not start in the all-zero state.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
	return r
}

// Fork derives an independent generator whose stream is a deterministic
// function of the parent's current state and the provided label. The parent
// state is not consumed, so forks with distinct labels are stable regardless
// of ordering.
func (r *RNG) Fork(label uint64) *RNG {
	return NewRNG(r.s[0] ^ rotl(r.s[2], 17) ^ (label * 0xd1342543de82ef95))
}

// Mix folds one label into a running key. It is a splitmix64 finalizer
// over the combined value, so swapping, duplicating or reordering labels
// yields unrelated keys (Stream(s, a, b) != Stream(s, b, a)). It derives
// RNG streams here and every hash-based deterministic choice elsewhere
// (pairing epochs, anycast churn, egress and NAT picks).
func Mix(key, label uint64) uint64 {
	z := key*0x9e3779b97f4a7c15 + label
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Stream derives an independent generator from a root seed and a label
// path, without any intermediate generator state. Two streams are
// uncorrelated unless seed and every label match, which makes
// Stream(seed, clientKey, seq) a pure function of the experiment's
// identity — the basis for order-invariant parallel campaign execution.
func Stream(seed uint64, labels ...uint64) *RNG {
	key := Mix(0x4375727461696e21, seed) // "Curtain!" domain tag
	for _, l := range labels {
		key = Mix(key, l)
	}
	return NewRNG(key)
}

// Derive is the multi-label generalization of Fork: it derives a child
// generator from the parent's current state and a label path, without
// consuming the parent state.
func (r *RNG) Derive(labels ...uint64) *RNG {
	key := r.s[0] ^ rotl(r.s[2], 17)
	for _, l := range labels {
		key = Mix(key, l)
	}
	return NewRNG(key)
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	res := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return res
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Perm returns a random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// NormFloat64 returns a standard normal variate (Box–Muller).
func (r *RNG) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool { return r.Float64() < p }
