package sim

import (
	"math/rand"
	"reflect"
	"testing"

	"awakemis/internal/rng"
)

// splitmixSource is the node stream as a math/rand Source64, the
// reference Rand is pinned against.
type splitmixSource struct {
	state uint64
	draws int // Uint64 calls, to tell which paths a method took
}

func (s *splitmixSource) Seed(seed int64) { s.state = uint64(seed) }

func (s *splitmixSource) Int63() int64 { return int64(s.Uint64() >> 1) }

func (s *splitmixSource) Uint64() uint64 {
	s.draws++
	s.state += 0x9e3779b97f4a7c15
	return rng.Mix(s.state)
}

// newNodeRand returns node id's stream for a run seed as a math/rand
// Rand, for tests that generate graphs from it.
func newNodeRand(seed int64, id int) *rand.Rand {
	return rand.New(&splitmixSource{state: nodeRand(seed, id).state})
}

// unmix inverts rng.Mix, so a test can pick a stream's next output.
func unmix(z uint64) uint64 {
	unshift := func(y uint64, s uint) uint64 {
		x := y
		for i := uint(0); i < 64; i += s {
			x = y ^ x>>s
		}
		return x
	}
	inverse := func(c uint64) uint64 { // of an odd c, modulo 2^64
		inv := c
		for i := 0; i < 6; i++ {
			inv *= 2 - c*inv
		}
		return inv
	}
	z = unshift(z, 31) * inverse(0x94d049bb133111eb)
	z = unshift(z, 27) * inverse(0xbf58476d1ce4e5b9)
	return unshift(z, 30)
}

// TestRandMatchesMathRand pins Rand against math/rand's Rand over the
// same splitmix64 stream, method for method: every value and the
// stream position after it must agree, on the power-of-two and
// rejection paths of Int63n and Int31n, both branches of Intn, Float64
// (its redraw of a value that rounds to 1 included) and Perm.
func TestRandMatchesMathRand(t *testing.T) {
	const rejecting63 = 1<<62 + 1 // rejects about half of all draws
	const rejecting31 = 1<<30 + 1
	type call struct {
		name string
		sim  func(r *Rand) any
		ref  func(r *rand.Rand) any
	}
	calls := []call{
		{"Int63", func(r *Rand) any { return r.Int63() }, func(r *rand.Rand) any { return r.Int63() }},
		{"Int31", func(r *Rand) any { return r.Int31() }, func(r *rand.Rand) any { return r.Int31() }},
		{"Float64", func(r *Rand) any { return r.Float64() }, func(r *rand.Rand) any { return r.Float64() }},
		{"Perm(0)", func(r *Rand) any { return r.Perm(0) }, func(r *rand.Rand) any { return r.Perm(0) }},
		{"Perm(37)", func(r *Rand) any { return r.Perm(37) }, func(r *rand.Rand) any { return r.Perm(37) }},
	}
	for _, n := range []int64{1, 2, 1 << 20, 1 << 62, 3, 1000, 1<<40 + 7, rejecting63} {
		calls = append(calls, call{"Int63n", func(r *Rand) any { return r.Int63n(n) }, func(r *rand.Rand) any { return r.Int63n(n) }})
	}
	for _, n := range []int32{1, 4, 1 << 30, 5, 1000, rejecting31} {
		calls = append(calls, call{"Int31n", func(r *Rand) any { return r.Int31n(n) }, func(r *rand.Rand) any { return r.Int31n(n) }})
	}
	for _, n := range []int{1, 8, 6, rejecting31, 1<<31 - 1, 1 << 31, 1<<40 + 3, rejecting63} {
		calls = append(calls, call{"Intn", func(r *Rand) any { return r.Intn(n) }, func(r *rand.Rand) any { return r.Intn(n) }})
	}

	redraws := map[string]int{} // calls that took more than one draw
	for seed := int64(0); seed < 40; seed++ {
		for id := 0; id < 5; id++ {
			r := nodeRand(seed, id)
			src := &splitmixSource{state: r.state}
			ref := rand.New(src)
			for _, c := range calls {
				before := src.draws
				got, want := c.sim(&r), c.ref(ref)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d node %d: %s = %v, math/rand %v", seed, id, c.name, got, want)
				}
				if r.state != src.state {
					t.Fatalf("seed %d node %d: %s left the stream at %#x, math/rand at %#x", seed, id, c.name, r.state, src.state)
				}
				if src.draws-before > 1 && c.name != "Perm(37)" {
					redraws[c.name]++
				}
			}
		}
	}
	for _, name := range []string{"Int63n", "Int31n", "Intn"} {
		if redraws[name] == 0 {
			t.Errorf("%s never took its rejection path", name)
		}
	}

	// A stream whose next output is all ones: Int63 is 2⁶³−1, which
	// rounds to 1.0 in float64, so Float64 must draw again.
	r := Rand{state: unmix(^uint64(0)) - 0x9e3779b97f4a7c15}
	src := &splitmixSource{state: r.state}
	got, want := r.Float64(), rand.New(src).Float64()
	if got != want || r.state != src.state || src.draws != 2 {
		t.Fatalf("Float64 redraw: got %v at %#x, math/rand %v at %#x after %d draws", got, r.state, want, src.state, src.draws)
	}
}
