package simclock

import (
	"hash/fnv"
	"math/rand"
	"testing"
)

func TestDeriveSeedStableAndLabelSensitive(t *testing.T) {
	a := DeriveSeed(7, "solver/0/1")
	if a != DeriveSeed(7, "solver/0/1") {
		t.Error("same (seed, label) must derive the same seed")
	}
	if a == DeriveSeed(7, "solver/0/2") {
		t.Error("sibling labels must derive distinct seeds")
	}
	if a == DeriveSeed(8, "solver/0/1") {
		t.Error("distinct root seeds must derive distinct seeds")
	}
}

func TestDeriveRandMatchesDeriveSeed(t *testing.T) {
	// DeriveRand is defined as NewRand(DeriveSeed(...)): the two
	// constructions must yield identical streams.
	a := DeriveRand(42, "mc/wf/100")
	b := NewRand(DeriveSeed(42, "mc/wf/100"))
	for i := 0; i < 16; i++ {
		if a.Float64() != b.Float64() {
			t.Fatalf("streams diverge at draw %d", i)
		}
	}
}

// TestDeriveSeedMatchesFNV pins the inlined hash to hash/fnv's FNV-1a over
// the seed's little-endian bytes followed by the label, in both the string
// and the byte-slice form: recorded runs replay only if every derived
// stream keeps its seed.
func TestDeriveSeedMatchesFNV(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		seed := int64(rng.Uint64())
		label := make([]byte, rng.Intn(64))
		rng.Read(label)
		h := fnv.New64a()
		var b [8]byte
		for k := range b {
			b[k] = byte(seed >> (8 * k))
		}
		h.Write(b[:])
		h.Write(label)
		want := int64(h.Sum64())
		if got := DeriveSeed(seed, string(label)); got != want {
			t.Fatalf("DeriveSeed(%d, %q) = %d, hash/fnv gives %d", seed, label, got, want)
		}
		if got := DeriveSeedBytes(seed, label); got != want {
			t.Fatalf("DeriveSeedBytes(%d, %q) = %d, hash/fnv gives %d", seed, label, got, want)
		}
	}
}
