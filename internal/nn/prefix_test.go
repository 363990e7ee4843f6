package nn

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

// randStarts builds a non-decreasing per-row suffix start table (the shape
// sorted MADE degrees produce) and zeroes the masked region of b to match.
func randStarts(rng *rand.Rand, b *Mat) []int {
	start := make([]int, b.Rows)
	s := 0
	for j := range start {
		s += rng.Intn(3)
		if s > b.Cols {
			s = b.Cols
		}
		start[j] = s
	}
	for j := range start {
		row := b.Row(j)
		for c := 0; c < start[j]; c++ {
			row[c] = 0
		}
	}
	return start
}

// randExts builds an arbitrary per-row prefix extent table and zeroes b
// outside each prefix.
func randExts(rng *rand.Rand, b *Mat) []int {
	ext := make([]int, b.Rows)
	for j := range ext {
		ext[j] = rng.Intn(b.Cols + 1)
		row := b.Row(j)
		for c := ext[j]; c < b.Cols; c++ {
			row[c] = 0
		}
	}
	return ext
}

// sparsify zeroes a fraction of entries, mimicking ReLU activations so the
// kernels' zero-skip paths are exercised.
func sparsify(rng *rand.Rand, m *Mat) {
	for i := range m.Data {
		if rng.Float64() < 0.5 {
			m.Data[i] = 0
		}
	}
}

// Shapes chosen to cover the 4-row blocked path, the scalar remainder, and
// both at once (rows ≢ 0 mod 4).
var kernelShapes = [][2]int{{1, 5}, {3, 8}, {4, 16}, {7, 33}, {16, 64}, {21, 19}}

func TestMatMulRowSuffixMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, sh := range kernelShapes {
		rows, inner := sh[0], sh[1]
		cols := inner + 3
		a := randMat(rng, rows, inner)
		sparsify(rng, a)
		b := randMat(rng, inner, cols)
		start := randStarts(rng, b)
		got := NewMat(rows, cols)
		MatMulRowSuffix(got, a, b, start)
		matsClose(t, got, naiveMul(a, b), 1e-12, "MatMulRowSuffix")
	}
}

func TestMatMulPrefixMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, sh := range kernelShapes {
		rows, inner := sh[0], sh[1]
		cols := inner + 5
		a := randMat(rng, rows, inner)
		sparsify(rng, a)
		b := randMat(rng, inner, cols)
		ext := randExts(rng, b)
		got := NewMat(rows, cols)
		MatMulPrefix(got, a, b, ext)
		want := naiveMul(a, b)
		matsClose(t, got, want, 1e-12, "MatMulPrefix")
		// Add variant accumulates on top of an existing value.
		MatMulPrefixAdd(got, a, b, ext)
		for i := range want.Data {
			want.Data[i] *= 2
		}
		matsClose(t, got, want, 1e-12, "MatMulPrefixAdd")
	}
}

func TestMatMulATAddRowSuffixMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, sh := range kernelShapes {
		batch, cols := sh[0]+2, sh[1]
		outCols := cols + 2
		a := randMat(rng, batch, cols)
		sparsify(rng, a)
		b := randMat(rng, batch, outCols)
		// The start table masks dst; reference = dense aᵀ·b with the masked
		// region zeroed afterward.
		dstMask := NewMat(cols, outCols)
		for i := range dstMask.Data {
			dstMask.Data[i] = 1
		}
		start := randStarts(rng, dstMask)
		got := NewMat(cols, outCols)
		MatMulATAddRowSuffix(got, a, b, start)
		MatMulATAddRowSuffix(got, a, b, start) // accumulation: expect 2×
		at := NewMat(cols, batch)
		TransposeInto(at, a)
		want := naiveMul(at, b)
		for j := 0; j < cols; j++ {
			row := want.Row(j)
			for c := range row {
				if c < start[j] {
					row[c] = 0
				} else {
					row[c] *= 2
				}
			}
		}
		matsClose(t, got, want, 1e-12, "MatMulATAddRowSuffix")
		// Masked region must remain untouched (exact zeros).
		for j := 0; j < cols; j++ {
			for c := 0; c < start[j]; c++ {
				if got.At(j, c) != 0 {
					t.Fatalf("masked entry (%d,%d) written: %v", j, c, got.At(j, c))
				}
			}
		}
	}
}

func TestMatMulATAddSubMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for _, sh := range kernelShapes {
		batch, cols := sh[0]+3, sh[1]
		outCols := 7
		k := cols / 2
		a := randMat(rng, batch, cols)
		sparsify(rng, a)
		b := randMat(rng, batch, outCols)
		got := NewMat(cols, outCols)
		MatMulATAddSub(got, a, b, k)
		at := NewMat(cols, batch)
		TransposeInto(at, a)
		want := naiveMul(at, b)
		for j := k; j < cols; j++ {
			row := want.Row(j)
			for c := range row {
				row[c] = 0
			}
		}
		matsClose(t, got, want, 1e-12, "MatMulATAddSub")
	}
}

func TestMatMulAddColsMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for _, sh := range kernelShapes {
		rows, inner := sh[0], sh[1]
		cols := inner + 4
		m := cols / 2
		a := randMat(rng, rows, inner)
		sparsify(rng, a)
		b := randMat(rng, inner, cols)
		// A second term over a narrower prefix: columns in [m2, m) get only
		// the first term.
		a2 := randMat(rng, rows, inner)
		b2 := randMat(rng, inner, cols)
		m2 := m / 2
		got := randMat(rng, rows, cols)
		orig := got.Clone()
		defaultPool.MatMulAddColsSeq(got, []*Mat{a, a2}, []*Mat{b, b2}, []int{m, m2})
		full, full2 := naiveMul(a, b), naiveMul(a2, b2)
		for i := 0; i < rows; i++ {
			for c := 0; c < cols; c++ {
				want := orig.At(i, c)
				if c < m {
					want += full.At(i, c)
				}
				if c < m2 {
					want += full2.At(i, c)
				}
				if math.Abs(got.At(i, c)-want) > 1e-12 {
					t.Fatalf("MatMulAddColsSeq (%d,%d): got %v want %v", i, c, got.At(i, c), want)
				}
			}
		}
	}
}

func TestMatMulSubBlockedRemainder(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for _, rows := range []int{1, 2, 3, 4, 5, 7, 9, 12} {
		a := randMat(rng, rows, 20)
		b := randMat(rng, 20, 11)
		k, m := 13, 7
		got := NewMat(rows, 11)
		MatMulSub(got, a, b, k, m)
		for i := 0; i < rows; i++ {
			for c := 0; c < m; c++ {
				want := 0.0
				for j := 0; j < k; j++ {
					want += a.At(i, j) * b.At(j, c)
				}
				if math.Abs(got.At(i, c)-want) > 1e-12 {
					t.Fatalf("rows=%d (%d,%d): got %v want %v", rows, i, c, got.At(i, c), want)
				}
			}
		}
	}
}

func TestTransposeInto(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	src := randMat(rng, 5, 9)
	dst := NewMat(9, 5)
	TransposeInto(dst, src)
	for i := 0; i < 5; i++ {
		for j := 0; j < 9; j++ {
			if dst.At(j, i) != src.At(i, j) {
				t.Fatalf("transpose mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestFusedBiasKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	x := randMat(rng, 6, 10)
	h := randMat(rng, 6, 10)
	bias := randMat(rng, 1, 10).Row(0)

	fused := x.Clone()
	AddBiasRelu(fused, bias)
	ref := x.Clone()
	AddBias(ref, bias)
	ReluInPlace(ref)
	matsClose(t, fused, ref, 0, "AddBiasRelu") // must be bit-identical

	fused = x.Clone()
	AddBiasResidual(fused, bias, h)
	ref = x.Clone()
	AddBias(ref, bias)
	AddInto(ref, h)
	matsClose(t, fused, ref, 0, "AddBiasResidual")
}

// TestAdamStepClippedMatchesSequential pins the fused clip+Adam update to
// the sequential ClipGradNorm + Step pair, including suffix-masked
// parameters whose masked entries must be skipped exactly.
func TestAdamStepClippedMatchesSequential(t *testing.T) {
	build := func(seed int64) []*Param {
		rng := rand.New(rand.NewSource(seed))
		dense := NewParam("dense", 3, 7)
		dense.InitNormal(rng, 1)
		masked := NewParam("masked", 6, 9)
		masked.InitNormal(rng, 1)
		masked.Suffix = []int{0, 2, 2, 5, 8, 9}
		for r, s := range masked.Suffix {
			for c := 0; c < s; c++ {
				masked.Val.Set(r, c, 0)
			}
		}
		return []*Param{dense, masked}
	}
	fillGrads := func(params []*Param, rng *rand.Rand) {
		for _, p := range params {
			for i := range p.Grad.Data {
				p.Grad.Data[i] = rng.NormFloat64() * 3
			}
			if p.Suffix != nil {
				for r, s := range p.Suffix {
					for c := 0; c < s; c++ {
						p.Grad.Set(r, c, 0)
					}
				}
			}
		}
	}

	for _, maxNorm := range []float64{0, 0.5, 1e6} {
		ref := build(1)
		fused := build(1)
		optRef := NewAdam(0.01)
		optFused := NewAdam(0.01)
		gradRng1 := rand.New(rand.NewSource(2))
		gradRng2 := rand.New(rand.NewSource(2))
		for step := 0; step < 25; step++ {
			fillGrads(ref, gradRng1)
			fillGrads(fused, gradRng2)
			var wantNorm float64
			if maxNorm > 0 {
				wantNorm = ClipGradNorm(ref, maxNorm)
			}
			optRef.Step(ref)
			gotNorm := optFused.StepClipped(fused, maxNorm)
			if maxNorm > 0 && math.Abs(gotNorm-wantNorm) > 1e-12*(1+wantNorm) {
				t.Fatalf("maxNorm=%v step %d: norm %v vs %v", maxNorm, step, gotNorm, wantNorm)
			}
			for pi := range ref {
				matsClose(t, fused[pi].Val, ref[pi].Val, 1e-12, "StepClipped weights")
				for i := range ref[pi].Grad.Data {
					if fused[pi].Grad.Data[i] != 0 {
						t.Fatalf("gradient not cleared at %d", i)
					}
				}
			}
		}
		if optFused.StepCount() != optRef.StepCount() {
			t.Fatalf("step counts diverge: %d vs %d", optFused.StepCount(), optRef.StepCount())
		}
	}
}

// TestPoolMatchesSerial runs the parallel worker pool against fully inline
// execution: chunk boundaries never change results because every output
// element is produced within one chunk.
func TestPoolMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	par := NewPool(4)
	a := randMat(rng, 200, 64)
	sparsify(rng, a)
	b := randMat(rng, 64, 48)
	start := randStarts(rng, b)

	serialOut := NewMat(200, 48)
	Serial.MatMulRowSuffix(serialOut, a, b, start)
	parOut := NewMat(200, 48)
	par.MatMulRowSuffix(parOut, a, b, start)
	matsClose(t, parOut, serialOut, 0, "pool MatMulRowSuffix")

	serialOut2 := NewMat(200, 48)
	Serial.MatMul(serialOut2, a, b)
	parOut2 := NewMat(200, 48)
	par.MatMul(parOut2, a, b)
	matsClose(t, parOut2, serialOut2, 0, "pool MatMul")

	targets := make([]int32, 200)
	for i := range targets {
		targets[i] = int32(rng.Intn(48))
	}
	logits := randMat(rng, 200, 48)
	dSerial := NewMat(200, 48)
	lossSerial := Serial.CrossEntropy(logits, targets, dSerial)
	dPar := NewMat(200, 48)
	lossPar := par.CrossEntropy(logits, targets, dPar)
	if math.Abs(lossSerial-lossPar) > 1e-9*(1+math.Abs(lossSerial)) {
		t.Fatalf("pool CrossEntropy loss %v vs %v", lossPar, lossSerial)
	}
	matsClose(t, dPar, dSerial, 0, "pool CrossEntropy gradient")
}

// TestPoolColdConcurrentFirstUse exercises a cold pool whose very first
// kernel calls arrive from several goroutines at once — the lock-free
// concurrent-Estimate pattern. Run under -race in CI: the lazily pinned
// parallelism must not race with unsynchronized readers.
func TestPoolColdConcurrentFirstUse(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	a := randMat(rng, 128, 64)
	b := randMat(rng, 64, 48)
	want := NewMat(128, 48)
	Serial.MatMul(want, a, b)

	cold := NewPool(0)
	var wg sync.WaitGroup
	outs := make([]*Mat, 4)
	for g := range outs {
		outs[g] = NewMat(128, 48)
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			cold.MatMul(outs[g], a, b)
		}(g)
	}
	wg.Wait()
	for g, out := range outs {
		matsClose(t, out, want, 0, "cold pool MatMul goroutine "+string(rune('0'+g)))
	}
}
