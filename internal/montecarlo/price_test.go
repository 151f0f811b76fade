package montecarlo

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"testing"
)

// priceCase is one block-kernel case: nR sizes the hour tables (nR + nR²
// entries each, so every width 1 … nR + nR² fits), w is the basis width
// and nRegs how many of its slots are region slots; seed draws the tables,
// the slot indices, the records and the running sum.
type priceCase struct {
	nR, w, nRegs uint8
	seed         uint64
}

// priceCases spans the widths 1 … nR + nR² and the region-slot counts
// 0 … w, both ends of each included, for nR up to 6.
func priceCases() []priceCase {
	var cs []priceCase
	rng := rand.New(rand.NewPCG(45, 4))
	for nR := 1; nR <= 6; nR++ {
		maxW := nR + nR*nR
		for _, w := range []int{1, 2, 3, 4, 5, nR, maxW / 2, maxW - 1, maxW, 1 + rng.IntN(maxW)} {
			if w < 1 || w > maxW {
				continue
			}
			for _, nRegs := range []int{0, 1, w / 2, w - 1, w, rng.IntN(w + 1)} {
				if nRegs < 0 || nRegs > w {
					continue
				}
				cs = append(cs, priceCase{uint8(nR), uint8(w), uint8(nRegs), rng.Uint64()})
			}
		}
	}
	return cs
}

// priceSpecials are the values IEEE arithmetic treats apart: signed zeros,
// subnormals, the smallest normal, infinities, NaN and extreme magnitudes.
var priceSpecials = []float64{
	0, math.Copysign(0, -1),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 1e-310, -3.3e-315,
	0x1p-1022, math.Inf(1), math.Inf(-1), math.NaN(),
	math.MaxFloat64, -math.MaxFloat64, 1e300, -1e300, 1e-300, 1, -1, 0.1,
}

// priceFixture builds case c's hour tables, basis slots, block records and
// starting carbon sum. Each value is a special with the case's rate (none, one in
// sixteen, one in four — a block full of NaN would hide a reordering) and
// otherwise a signed mantissa times 10^[-20, 20]. raw, 8 bytes a value,
// overrides the tables' then the records' values with arbitrary bits.
func priceFixture(c priceCase, raw []byte) (inten, rf []float64, b *Basis, recs []float64, sum float64) {
	// Fuzzed fields out of range wrap into it; the table's are in range.
	nR, w, nRegs := int(c.nR), int(c.w), int(c.nRegs)
	if nR < 1 || nR > 6 {
		nR = 1 + nR%6
	}
	size := nR + nR*nR
	if w < 1 || w > size {
		w = 1 + w%size
	}
	nRegs %= w + 1
	rng := rand.New(rand.NewPCG(c.seed, uint64(w)<<8|uint64(nRegs)))
	rate := []int{0, 16, 4}[rng.IntN(3)]
	draw := func() float64 {
		if rate > 0 && rng.IntN(rate) == 0 {
			return priceSpecials[rng.IntN(len(priceSpecials))]
		}
		return (2*rng.Float64() - 1) * math.Pow(10, float64(rng.IntN(41)-20))
	}
	tables := make([]float64, 2*size)
	recs = make([]float64, BatchSize*w)
	for _, xs := range [][]float64{tables, recs} {
		for i := range xs {
			xs[i] = draw()
			if len(raw) >= 8 {
				xs[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw))
				raw = raw[8:]
			}
		}
	}
	if rng.IntN(2) == 0 {
		sum = draw()
	}
	// Slot indices: ascending, distinct within each kind, anywhere in the
	// tables.
	pick := func(n int) []int32 {
		idx := make([]int32, n)
		for i, p := range rng.Perm(size)[:n] {
			idx[i] = int32(p)
		}
		slices.Sort(idx)
		return idx
	}
	b = &Basis{regs: pick(nRegs), pairs: pick(w - nRegs)}
	return tables[:size], tables[size:], b, recs, sum
}

// sameBits reports whether x and y carry the same bits — signed zeros
// apart — or are both NaN. A NaN's payload is not the program's: with two
// NaN operands x86 returns the first one's, and the compiler may commute an
// add.
func sameBits(x, y float64) bool {
	return math.Float64bits(x) == math.Float64bits(y) || math.IsNaN(x) && math.IsNaN(y)
}

// checkPriceBlock prices case c's block with the kernel and with a
// priceSample loop, and requires every series entry and the running carbon
// sum to carry the same bits (sameBits).
func checkPriceBlock(t *testing.T, c priceCase, raw []byte) {
	t.Helper()
	inten, rf, b, recs, sum := priceFixture(c, raw)
	w, nRegs := b.width(), len(b.regs)

	want, wantSum := make([]float64, BatchSize), sum
	for i := range want {
		rec := recs[i*w : (i+1)*w]
		ex, tx := priceSample(inten, rf, b.regs, b.pairs, rec[:nRegs], rec[nRegs:])
		want[i] = ex + tx
		wantSum += want[i]
	}

	coef := make([]float64, w)
	b.gather(coef, inten, rf)
	got := make([]float64, BatchSize)
	gotSum := priceBlock(got, recs, coef, nRegs, sum)

	for i := range want {
		if !sameBits(got[i], want[i]) {
			t.Fatalf("%+v (w=%d, %d region slots): sample %d priced %v (%#x), priceSample gives %v (%#x)",
				c, w, nRegs, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
	if !sameBits(gotSum, wantSum) {
		t.Fatalf("%+v (w=%d, %d region slots): carbon sum %v (%#x), priceSample loop gives %v (%#x)",
			c, w, nRegs, gotSum, math.Float64bits(gotSum), wantSum, math.Float64bits(wantSum))
	}
}

// TestPriceBlockMatchesPriceSample pins the block kernel to the one-sample
// definition, bit for bit, over widths, region-slot counts and values
// that IEEE arithmetic treats apart.
func TestPriceBlockMatchesPriceSample(t *testing.T) {
	cases := priceCases()
	if len(cases) < 100 {
		t.Fatalf("only %d cases", len(cases))
	}
	for _, c := range cases {
		checkPriceBlock(t, c, nil)
	}
}

// FuzzPriceBlock is TestPriceBlockMatchesPriceSample's oracle over fuzzed
// cases; raw sets table and record values bit by bit.
func FuzzPriceBlock(f *testing.F) {
	for _, c := range priceCases() {
		f.Add(c.nR, c.w, c.nRegs, c.seed, []byte(nil))
	}
	f.Fuzz(func(t *testing.T, nR, w, nRegs uint8, seed uint64, raw []byte) {
		checkPriceBlock(t, priceCase{nR, w, nRegs, seed}, raw)
	})
}

// checkBlockCarbonFloor builds case c's block with every table value,
// record and the running sum made non-negative (|x|) and checks its carbon
// floor (checkFloor).
func checkBlockCarbonFloor(t *testing.T, c priceCase, raw []byte) bool {
	t.Helper()
	inten, rf, b, recs, sum := priceFixture(c, raw)
	for _, xs := range [][]float64{inten, rf, recs} {
		for i, x := range xs {
			xs[i] = math.Abs(x)
		}
	}
	coef := make([]float64, b.width())
	b.gather(coef, inten, rf)
	return checkFloor(t, fmt.Sprintf("%+v", c), b, coef, recs, math.Abs(sum))
}

// checkFloor takes the block's slot sums (slotSums) and requires the carbon
// floor, wherever it claims to hold, to be at most the running sum
// priceBlock returns and, for a finite sum, within 3·screenTol (less
// 2⁻⁹⁹⁹) of it: the margin is enough and the floor is no looser. It
// reports whether the floor held.
func checkFloor(t *testing.T, name string, b *Basis, coef, recs []float64, sum float64) bool {
	t.Helper()
	nRegs := len(b.regs)
	blk := make([]float64, 2*BatchSize+len(recs))
	copy(blk[2*BatchSize:], recs)
	b.blocks, b.stat, b.arena = [][]float64{blk}, make([]boundStat, 1), NewBasisArena()
	floor, ok := carbonFloor(b.slotSums(0), coef, nRegs, sum)
	got := priceBlock(make([]float64, BatchSize), recs, coef, nRegs, sum)
	if !ok {
		return false
	}
	if !(floor <= got) {
		t.Fatalf("%s (w=%d, %d region slots): floor %v (%#x) above the priced sum %v (%#x)",
			name, len(coef), nRegs, floor, math.Float64bits(floor), got, math.Float64bits(got))
	}
	if got <= math.MaxFloat64 && !(floor >= got*(1-3*screenTol)-0x1p-999) {
		t.Fatalf("%s (w=%d, %d region slots): floor %v is looser than 3·screenTol under the priced sum %v", name, len(coef), nRegs, floor, got)
	}
	return true
}

// TestBlockCarbonFloor holds the carbon floor under the priced sum over
// the block-kernel cases, and requires it to hold on at least a quarter of
// them: a third carry no special value, and the rest hold unless a
// non-finite value or an overflow voids the floor. A block whose every
// product underflows to zero in the kernel, while coefficient × slot sum
// does not, needs the floor's absolute slack.
func TestBlockCarbonFloor(t *testing.T) {
	held, cases := 0, priceCases()
	for _, c := range cases {
		if checkBlockCarbonFloor(t, c, nil) {
			held++
		}
	}
	if 4*held < len(cases) {
		t.Errorf("the floor held on %d of %d cases", held, len(cases))
	}
	recs := make([]float64, BatchSize)
	for i := range recs {
		recs[i] = 0x1p-540
	}
	if !checkFloor(t, "underflow", &Basis{pairs: []int32{0}}, []float64{0x1p-536}, recs, 0) {
		t.Error("underflow: the floor did not hold")
	}
}

// FuzzBlockCarbonFloor is TestBlockCarbonFloor's oracle over fuzzed cases;
// raw sets table and record values bit by bit (their magnitudes).
func FuzzBlockCarbonFloor(f *testing.F) {
	for _, c := range priceCases() {
		f.Add(c.nR, c.w, c.nRegs, c.seed, []byte(nil))
	}
	f.Fuzz(func(t *testing.T, nR, w, nRegs uint8, seed uint64, raw []byte) {
		checkBlockCarbonFloor(t, priceCase{nR, w, nRegs, seed}, raw)
	})
}
