package made

import (
	"math"
	"math/rand"
	"testing"

	"neurocard/internal/nn"
)

// randTokens draws a full token tuple (no wildcards) for the model domains.
func randTokens(rng *rand.Rand, doms []int) []int32 {
	row := make([]int32, len(doms))
	for i, d := range doms {
		row[i] = int32(rng.Intn(d))
	}
	return row
}

// assertProbsMatch checks the session's conditional for col against the
// reference Conditional on the same token state, to within tol.
func assertProbsMatch(t *testing.T, m *Model, s *InferSession, col int, tol float64) {
	t.Helper()
	b := s.Rows()
	tokens := make([][]int32, b)
	for r := 0; r < b; r++ {
		tokens[r] = append([]int32(nil), s.TokenRow(r)...)
	}
	want := nn.NewMat(b, m.DomainSize(col))
	m.Conditional(tokens, col, want)
	got := s.Probs(col)
	if got.Rows != b || got.Cols != m.DomainSize(col) {
		t.Fatalf("col %d: Probs shape %dx%d, want %dx%d", col, got.Rows, got.Cols, b, m.DomainSize(col))
	}
	for i := range want.Data {
		if d := math.Abs(got.Data[i] - want.Data[i]); d > tol {
			t.Fatalf("col %d: session prob %v vs Conditional %v (|Δ| = %g > %g)",
				col, got.Data[i], want.Data[i], d, tol)
		}
	}
}

// TestInferSessionMatchesConditional drives a session through the access
// pattern progressive sampling uses — incremental token assignment in
// column order with interleaved head reads and row compaction — and checks
// every returned distribution against the from-scratch Conditional to 1e-9.
func TestInferSessionMatchesConditional(t *testing.T) {
	configs := []struct {
		doms   []int
		blocks int
	}{
		{[]int{3}, 1},
		{[]int{4, 2, 5}, 0},
		{[]int{6, 3, 2, 8, 4}, 2},
		{[]int{2, 2, 2, 2, 2, 2, 17}, 1},
	}
	for ci, tc := range configs {
		cfg := DefaultConfig()
		cfg.Hidden = 24
		cfg.EmbedDim = 6
		cfg.Blocks = tc.blocks
		cfg.Seed = int64(ci + 1)
		m, err := New(cfg, tc.doms)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(100 + ci)))
		s := m.NewInferSession(16)

		// Two batches on the same session to exercise Reset reuse.
		for batch := 0; batch < 2; batch++ {
			b := 5 + batch*7
			s.Reset(b)
			for col := 0; col < m.NumCols(); col++ {
				assertProbsMatch(t, m, s, col, 1e-9)
				for r := 0; r < s.Rows(); r++ {
					if rng.Float64() < 0.3 {
						continue // leave a wildcard
					}
					s.SetToken(r, col, int32(rng.Intn(tc.doms[col])))
				}
				// Occasionally drop rows the way compactZero does.
				if s.Rows() > 2 && rng.Float64() < 0.4 {
					s.CompactRows(0, s.Rows()-1)
					s.Shrink(s.Rows() - 1)
				}
			}
			// Re-read every head off the final token state, including
			// overwriting a token back to a wildcard.
			s.SetToken(0, 0, MaskToken)
			for col := 0; col < m.NumCols(); col++ {
				assertProbsMatch(t, m, s, col, 1e-9)
			}
		}
	}
}

// TestInferSessionReplicate: fanning a single row out to n rows must leave
// the session in exactly the state of an n-row session that was driven to
// the same tokens row by row — tokens, incremental preactivation, and cached
// trunk included. The test drives both sessions onward after the fan-out
// (per-row divergent tokens, compaction) and checks every head against the
// from-scratch Conditional.
func TestInferSessionReplicate(t *testing.T) {
	for ci, doms := range [][]int{
		{5, 3, 4},
		{2, 2, 6, 3, 2, 4},
	} {
		cfg := DefaultConfig()
		cfg.Hidden = 24
		cfg.EmbedDim = 6
		cfg.Blocks = 2
		cfg.Seed = int64(ci + 3)
		m, err := New(cfg, doms)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(40 + ci)))
		s := m.NewInferSession(8)
		s.Reset(1)

		// Single-row phase: the lazy kernel's deterministic prefix — set a
		// few leading columns on row 0 with interleaved head reads so the
		// trunk cache is partially built at fan-out time.
		split := len(doms) / 2
		for col := 0; col < split; col++ {
			assertProbsMatch(t, m, s, col, 1e-9)
			s.SetToken(0, col, int32(rng.Intn(doms[col])))
		}
		s.Replicate(6)
		if s.Rows() != 6 {
			t.Fatalf("rows after Replicate = %d, want 6", s.Rows())
		}
		row0 := append([]int32(nil), s.TokenRow(0)...)
		for r := 1; r < 6; r++ {
			for c, tok := range s.TokenRow(r) {
				if tok != row0[c] {
					t.Fatalf("row %d col %d token %d, want replica of %d", r, c, tok, row0[c])
				}
			}
		}

		// Divergent phase: per-row tokens, head reads, and compaction.
		for col := split; col < len(doms); col++ {
			assertProbsMatch(t, m, s, col, 1e-9)
			for r := 0; r < s.Rows(); r++ {
				s.SetToken(r, col, int32(rng.Intn(doms[col])))
			}
			if col == split && s.Rows() > 2 {
				s.CompactRows(1, s.Rows()-1)
				s.Shrink(s.Rows() - 1)
			}
		}
		for col := 0; col < len(doms); col++ {
			assertProbsMatch(t, m, s, col, 1e-9)
		}
	}
}

// TestInferSessionReplicateRequiresSingleRow: replicating a multi-row batch
// is a kernel bug; the session must refuse.
func TestInferSessionReplicateRequiresSingleRow(t *testing.T) {
	m, err := New(Config{EmbedDim: 4, Hidden: 8, Blocks: 1, Seed: 1}, []int{3, 4})
	if err != nil {
		t.Fatal(err)
	}
	s := m.NewInferSession(4)
	s.Reset(2)
	defer func() {
		if recover() == nil {
			t.Error("Replicate from a 2-row batch did not panic")
		}
	}()
	s.Replicate(4)
}

// TestInferSessionRefreshAfterTraining: weight updates invalidate the
// session's cached MASK projections; the next Reset must refresh them.
func TestInferSessionRefreshAfterTraining(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Hidden = 16
	cfg.EmbedDim = 4
	cfg.Blocks = 1
	doms := []int{5, 3, 4}
	m, err := New(cfg, doms)
	if err != nil {
		t.Fatal(err)
	}
	s := m.NewInferSession(8)
	s.Reset(4)
	s.Probs(2)

	rng := rand.New(rand.NewSource(9))
	batch := make([][]int32, 32)
	for i := range batch {
		batch[i] = randTokens(rng, doms)
	}
	for step := 0; step < 3; step++ {
		m.TrainStep(batch, 0.3)
	}

	s.Reset(4)
	for r := 0; r < 4; r++ {
		s.SetToken(r, 0, int32(r%5))
	}
	for col := 0; col < m.NumCols(); col++ {
		assertProbsMatch(t, m, s, col, 1e-9)
	}
}

// TestInferSessionAVXMatchesScalar: on a trained model, a float64 session on
// the AVX kernels (the weights64 snapshot with its transposed embeddings)
// returns bit-identical Probs on every column to a session on the aliasing
// scalar view, through fan-out, divergent tokens, wildcard restores and
// compaction — and still after further training moves the weight version.
func TestInferSessionAVXMatchesScalar(t *testing.T) {
	if !nn.AVX() {
		t.Skip("AVX float64 serving kernels unavailable on this host")
	}
	for ci, tc := range []struct {
		doms          []int
		hidden, embed int
		blocks        int
	}{
		{[]int{5, 3, 4}, 24, 6, 0},
		{[]int{2, 2, 7, 3, 2, 19, 4}, 37, 9, 1},
		{[]int{6, 33, 2, 8, 4, 2, 2, 11}, 64, 8, 2},
	} {
		cfg := DefaultConfig()
		cfg.Hidden, cfg.EmbedDim, cfg.Blocks = tc.hidden, tc.embed, tc.blocks
		cfg.Seed = int64(ci + 7)
		m, err := New(cfg, tc.doms)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(70 + ci)))
		train := func(steps int) {
			for i := 0; i < steps; i++ {
				batch := make([][]int32, 32)
				for r := range batch {
					batch[r] = randTokens(rng, tc.doms)
				}
				m.TrainStep(batch, 0.5)
			}
		}
		train(20)
		scalar := newInferSession(m, 13, m.aliasWeights64)
		avx := m.NewInferSession(13)
		if avx.w.embVT == nil || scalar.w.embVT != nil {
			t.Fatal("sessions are not on the AVX and scalar views")
		}
		same := func(round, col int) {
			t.Helper()
			want, got := scalar.Probs(col), avx.Probs(col)
			for i := range want.Data {
				if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
					t.Fatalf("config %d round %d col %d: AVX prob %v, scalar %v", ci, round, col, got.Data[i], want.Data[i])
				}
			}
		}
		for round := 0; round < 3; round++ {
			scalar.Reset(1)
			avx.Reset(1)
			same(round, 0)
			tok := int32(rng.Intn(tc.doms[0]))
			scalar.SetToken(0, 0, tok)
			avx.SetToken(0, 0, tok)
			scalar.Replicate(13)
			avx.Replicate(13)
			for col := 1; col < m.NumCols(); col++ {
				same(round, col)
				for r := 0; r < scalar.Rows(); r++ {
					if rng.Float64() < 0.25 {
						continue
					}
					tok := int32(rng.Intn(tc.doms[col]))
					scalar.SetToken(r, col, tok)
					avx.SetToken(r, col, tok)
				}
				if scalar.Rows() > 2 && rng.Float64() < 0.4 {
					scalar.CompactRows(1, scalar.Rows()-1)
					avx.CompactRows(1, avx.Rows()-1)
					scalar.Shrink(scalar.Rows() - 1)
					avx.Shrink(avx.Rows() - 1)
				}
			}
			scalar.SetToken(0, 0, MaskToken)
			avx.SetToken(0, 0, MaskToken)
			for col := 0; col < m.NumCols(); col++ {
				same(round, col)
			}
			train(3) // the next Reset must pick up the new weight version
		}
	}
}
