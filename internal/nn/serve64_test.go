package nn

import (
	"math"
	"math/rand"
	"testing"
)

// withAVX runs f with the float64 serving kernels forced onto (on = true) or
// off their AVX path, restoring the init-time choice afterwards.
func withAVX(on bool, f func()) {
	saved := useAVX
	useAVX = on
	defer func() { useAVX = saved }()
	f()
}

// requireAVX skips tests that force the AVX path on a host without AVX2
// (forcing it there would execute illegal instructions).
func requireAVX(t *testing.T) {
	t.Helper()
	if !useAVX {
		t.Skip("AVX float64 serving kernels unavailable on this host")
	}
}

// edgeMat fills a rows×cols matrix with values that stress bit-exactness:
// mostly normals, plus exact +0 and -0, subnormals, and large magnitudes
// (kept below 1e150 so no product or k-term sum overflows), and zeroes
// whole rows with probability 1/4 to mimic ReLU-sparse activations.
func edgeMat(rng *rand.Rand, rows, cols int) *Mat {
	m := NewMat(rows, cols)
	for r := 0; r < rows; r++ {
		row := m.Row(r)
		if rng.Intn(4) == 0 {
			continue
		}
		for j := range row {
			switch rng.Intn(10) {
			case 0:
				row[j] = 0
			case 1:
				row[j] = math.Copysign(0, -1)
			case 2:
				row[j] = float64(rng.Intn(1000)-500) * math.SmallestNonzeroFloat64
			case 3:
				row[j] = rng.NormFloat64() * 1e140
			case 4:
				row[j] = rng.NormFloat64() * 1e-300
			default:
				row[j] = rng.NormFloat64()
			}
		}
	}
	return m
}

// filled returns a rows×cols matrix of the sentinel value, so a test can see
// which elements a kernel wrote.
func filled(rows, cols int, v float64) *Mat {
	m := NewMat(rows, cols)
	for i := range m.Data {
		m.Data[i] = v
	}
	return m
}

func bitsEqual(t *testing.T, label string, got, want *Mat) {
	t.Helper()
	for i := range want.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
			t.Fatalf("%s: element (%d,%d) = %v (%#x), scalar %v (%#x)", label,
				i/want.Cols, i%want.Cols, got.Data[i], math.Float64bits(got.Data[i]),
				want.Data[i], math.Float64bits(want.Data[i]))
		}
	}
}

// serveShapes are the dimension pairs the bitwise tests sweep: every tail
// of the 4-row blocks and of the 4- and 8-lane column blocks, on both sides
// of each boundary.
var serveShapes = []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 11, 12, 13, 16, 17, 23}

// TestMatMulCols64Bitwise: the trunk-extension kernel equals the scalar
// MatMulColsG bit for bit on both dispatch paths, and writes nothing outside
// the column range.
func TestMatMulCols64Bitwise(t *testing.T) {
	requireAVX(t)
	rng := rand.New(rand.NewSource(64))
	const sentinel = -7.25
	for _, rows := range serveShapes {
		for _, k := range serveShapes {
			for trial := 0; trial < 3; trial++ {
				cols := k + rng.Intn(12)
				cl := rng.Intn(cols + 1)
				ch := cl + rng.Intn(cols-cl+1)
				a := edgeMat(rng, rows, k+rng.Intn(3))
				b := edgeMat(rng, k+rng.Intn(3), cols)
				want := filled(rows, cols, sentinel)
				MatMulColsG(Serial, want, a, b, k, cl, ch)
				for _, on := range []bool{true, false} {
					got := filled(rows, cols, sentinel)
					withAVX(on, func() { MatMulCols64(Serial, got, a, b, k, cl, ch) })
					bitsEqual(t, "MatMulCols64", got, want)
				}
			}
		}
	}
}

// TestMatMulCols64TransposedBitwise: the session's logits — MatMulCols64
// over the E×D transposed embedding — equal MatMulBTG over the D×E original
// bit for bit.
func TestMatMulCols64TransposedBitwise(t *testing.T) {
	requireAVX(t)
	rng := rand.New(rand.NewSource(66))
	for _, rows := range serveShapes {
		for _, d := range serveShapes {
			for _, e := range []int{0, 1, 3, 4, 8, 9, 16} {
				a := edgeMat(rng, rows, e)
				w := edgeMat(rng, d, e)
				wT := NewMat(e, d)
				TransposeInto(wT, w)
				want := NewMat(rows, d)
				MatMulBTG(Serial, want, a, w)
				for _, on := range []bool{true, false} {
					got := filled(rows, d, 1)
					withAVX(on, func() { MatMulCols64(Serial, got, a, wT, e, 0, d) })
					bitsEqual(t, "MatMulCols64 logits", got, want)
				}
			}
		}
	}
}

// TestEmbedAxpy64Bitwise pins the SetToken delta kernel against the scalar
// j-outer axpy loop across every 4-lane and 16-column block tail, column
// offsets, both signs, and embedding rows that are exactly ±0 (skipped) —
// including over a destination holding -0, where a non-skipped zero row
// would turn -0 into +0.
func TestEmbedAxpy64Bitwise(t *testing.T) {
	requireAVX(t)
	rng := rand.New(rand.NewSource(67))
	for _, n := range []int{0, 1, 2, 3, 4, 5, 7, 8, 15, 16, 17, 31, 33, 64, 67} {
		for _, e := range []int{0, 1, 3, 8, 9} {
			w := edgeMat(rng, e+3, n+5)
			row, col := rng.Intn(4), rng.Intn(6)
			emb := edgeMat(rng, 1, e).Data
			y0 := edgeMat(rng, 1, n).Data
			for _, sign := range []float64{1, -1} {
				want := append([]float64(nil), y0...)
				for j, ev := range emb {
					v := ev * sign
					if v == 0 {
						continue
					}
					for c := range want {
						want[c] += v * w.At(row+j, col+c)
					}
				}
				for _, on := range []bool{true, false} {
					got := append([]float64(nil), y0...)
					withAVX(on, func() { EmbedAxpy64(got, w, row, col, emb, sign) })
					for c := range want {
						if math.Float64bits(got[c]) != math.Float64bits(want[c]) {
							t.Fatalf("n=%d e=%d sign=%v avx=%v: y[%d] = %v, scalar %v", n, e, sign, on, c, got[c], want[c])
						}
					}
				}
			}
		}
	}
}

// TestServe64PoolMatchesSerial: row-chunked parallel dispatch produces the
// serial result (chunks split rows, never the per-element sum).
func TestServe64PoolMatchesSerial(t *testing.T) {
	requireAVX(t)
	rng := rand.New(rand.NewSource(68))
	p := NewPool(3)
	a := edgeMat(rng, 131, 40)
	b := edgeMat(rng, 40, 37)
	want := NewMat(131, 37)
	MatMulColsG(Serial, want, a, b, 40, 5, 30)
	got := NewMat(131, 37)
	MatMulCols64(p, got, a, b, 40, 5, 30)
	bitsEqual(t, "MatMulCols64 pooled", got, want)
}
