package simclock

import (
	"math/rand"
	"testing"
)

// TestLazySourceMatchesMathRand pins lazySource to math/rand draw by
// draw: every stream the simulator ever sees must be bit-identical to
// rand.NewSource's. Long runs (3× the register length) cross the
// tap/feed wraparound and the fully-mutated-register regime; the seed
// set covers negative values, zero, the modulus edge cases, and the
// FNV-derived seeds DeriveRand produces.
func TestLazySourceMatchesMathRand(t *testing.T) {
	seeds := []int64{
		0, 1, -1, 42, -42, 89482311,
		1<<31 - 1, 1<<31 - 2, 1 << 31, -(1<<31 - 1),
		1<<62 + 12345, -(1<<62 + 12345),
		DeriveSeed(42, "solver/1697328000/0"),
		DeriveSeed(7, "mc/rich/1697331600"),
	}
	for _, seed := range seeds {
		ref := rand.NewSource(seed).(rand.Source64)
		lz := newLazySource(seed)
		for i := 0; i < 3*lzLen; i++ {
			if got, want := lz.Uint64(), ref.Uint64(); got != want {
				t.Fatalf("seed %d draw %d: lazy %d != math/rand %d", seed, i, got, want)
			}
		}
	}
}

// TestLazySourceReseed checks that reseeding fully resets the lazy
// register: a reused source must restart the stream exactly, with no
// stale materialized entries leaking from the previous seed.
func TestLazySourceReseed(t *testing.T) {
	lz := newLazySource(1)
	for i := 0; i < lzLen+5; i++ {
		lz.Uint64()
	}
	lz.Seed(2)
	ref := rand.NewSource(2).(rand.Source64)
	for i := 0; i < 2*lzLen; i++ {
		if got, want := lz.Uint64(), ref.Uint64(); got != want {
			t.Fatalf("after reseed, draw %d: lazy %d != math/rand %d", i, got, want)
		}
	}
}

// TestRandMethodsMatchMathRand pins the full Rand wrapper — Float64,
// Perm, Normal, Exponential, with source Intn draws between them —
// against rand.New(rand.NewSource): the wrapper must stay a pure
// re-sourcing, never a reimplementation.
func TestRandMethodsMatchMathRand(t *testing.T) {
	ref := rand.New(rand.NewSource(99))
	r := NewRand(99)
	for i := 0; i < 200; i++ {
		if got, want := r.Float64(), ref.Float64(); got != want {
			t.Fatalf("Float64 draw %d: %v != %v", i, got, want)
		}
	}
	for i := 0; i < 50; i++ {
		if got, want := r.src.Intn(1000), ref.Intn(1000); got != want {
			t.Fatalf("Intn draw %d: %d != %d", i, got, want)
		}
	}
	gotPerm, wantPerm := r.Perm(20), ref.Perm(20)
	for i := range wantPerm {
		if gotPerm[i] != wantPerm[i] {
			t.Fatalf("Perm[%d]: %d != %d", i, gotPerm[i], wantPerm[i])
		}
	}
	for i := 0; i < 50; i++ {
		if got, want := r.Normal(0, 1), ref.NormFloat64(); got != want {
			t.Fatalf("Normal draw %d: %v != %v", i, got, want)
		}
		if got, want := r.Exponential(1), ref.ExpFloat64(); got != want {
			t.Fatalf("Exponential draw %d: %v != %v", i, got, want)
		}
	}
}
