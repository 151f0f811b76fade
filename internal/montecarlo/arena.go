package montecarlo

import "sync"

// basisChunk is the arena's slab size in float64s (256 kB): a first-batch
// block is ≈1 200 floats, so one chunk carries ≈25 plans.
const basisChunk = 1 << 15

// chunkPool recycles arena slabs across solves. Blocks are written in full
// before they are read, so a recycled slab cannot leak one solve's numbers
// into another's.
var chunkPool = sync.Pool{New: func() any { return new([basisChunk]float64) }}

// BasisArena carves the blocks of one solve's bases from pooled slabs, so
// memoizing hundreds of bases costs no steady-state allocation. Release
// returns the slabs; bases carved from the arena must not be used
// afterwards.
type BasisArena struct {
	mu     sync.Mutex
	chunks []*[basisChunk]float64
	free   []float64
}

// NewBasisArena returns an empty arena.
func NewBasisArena() *BasisArena { return &BasisArena{} }

func (a *BasisArena) take(n int) []float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	if n > len(a.free) {
		if n > basisChunk {
			return make([]float64, n) // wider than a slab: not pooled
		}
		c := chunkPool.Get().(*[basisChunk]float64)
		a.chunks = append(a.chunks, c)
		a.free = c[:]
	}
	blk := a.free[:n:n]
	a.free = a.free[n:]
	return blk
}

// Release returns the arena's slabs to the pool.
func (a *BasisArena) Release() {
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, c := range a.chunks {
		chunkPool.Put(c)
	}
	a.chunks, a.free = nil, nil
}
