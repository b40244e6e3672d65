package sim

import "awakemis/internal/rng"

// Rand is a node's private randomness: a splitmix64 stream in 8 bytes
// of state, with the math/rand methods programs call. Every node's
// stream is derived from (Config.Seed, node index) through rng.Stream,
// which is what makes runs bit-identical at every worker count.
//
// Each method draws exactly what math/rand's method of the same name
// draws from a rand.Source64 whose Uint64 is this splitmix64 stream
// and whose Int63 is Uint64 shifted right by one. The derivation and
// the draws are frozen: recorded runs replay bit-identically across
// releases.
//
// A Rand is used through a pointer: copying it forks the stream.
type Rand struct {
	state uint64
}

// nodeRand returns node v's stream for a run seed.
func nodeRand(seed int64, v int) Rand {
	return Rand{state: uint64(rng.Stream(seed, int64(v)))}
}

// Int63 returns a non-negative pseudo-random 63-bit integer.
func (r *Rand) Int63() int64 {
	r.state += 0x9e3779b97f4a7c15 // the splitmix64 increment
	return int64(rng.Mix(r.state) >> 1)
}

// Int31 returns a non-negative pseudo-random 31-bit integer.
func (r *Rand) Int31() int32 { return int32(r.Int63() >> 32) }

// Int63n returns a pseudo-random number in [0, n). It panics if n <= 0.
func (r *Rand) Int63n(n int64) int64 {
	if n <= 0 {
		panic("invalid argument to Int63n")
	}
	if n&(n-1) == 0 { // a power of two: mask
		return r.Int63() & (n - 1)
	}
	limit := int64((1 << 63) - 1 - (1<<63)%uint64(n))
	v := r.Int63()
	for v > limit {
		v = r.Int63()
	}
	return v % n
}

// Int31n returns a pseudo-random number in [0, n). It panics if n <= 0.
func (r *Rand) Int31n(n int32) int32 {
	if n <= 0 {
		panic("invalid argument to Int31n")
	}
	if n&(n-1) == 0 { // a power of two: mask
		return r.Int31() & (n - 1)
	}
	limit := int32((1 << 31) - 1 - (1<<31)%uint32(n))
	v := r.Int31()
	for v > limit {
		v = r.Int31()
	}
	return v % n
}

// Intn returns a pseudo-random number in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("invalid argument to Intn")
	}
	if n <= 1<<31-1 {
		return int(r.Int31n(int32(n)))
	}
	return int(r.Int63n(int64(n)))
}

// Float64 returns a pseudo-random number in [0.0, 1.0).
func (r *Rand) Float64() float64 {
	for {
		// A draw that rounds up to 1 is redrawn, as math/rand does.
		if f := float64(r.Int63()) / (1 << 63); f < 1 {
			return f
		}
	}
}

// Perm returns a pseudo-random permutation of [0, n).
func (r *Rand) Perm(n int) []int {
	m := make([]int, n)
	for i := 0; i < n; i++ {
		j := r.Intn(i + 1)
		m[i] = m[j]
		m[j] = i
	}
	return m
}
