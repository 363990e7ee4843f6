package core_test

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"neurocard/internal/core"
	"neurocard/internal/faultinject"
	"neurocard/internal/query"
)

// estimateOne runs one query at (seed, idx) under ctx as a one-item batch on
// a single worker, which takes the same non-serial pooled session as the
// Estimate entry points.
func estimateOne(ctx context.Context, est *core.Estimator, q query.Query, seed, idx int64) (float64, error) {
	ests, errs := est.EstimateItems([]core.BatchItem{{Query: q, Seed: seed, Idx: idx, Ctx: ctx}}, 1)
	return ests[0], errs[0]
}

// TestDeadlineCancelsMidSampling: a context that expires while progressive
// sampling is between columns must stop the estimate with the context's
// error, and an already-expired context must fail before sampling starts.
func TestDeadlineCancelsMidSampling(t *testing.T) {
	est := trainedEstimator(t)
	q := query.Query{Tables: []string{"A", "B", "C"}}

	// Already cancelled: fails up front.
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := estimateOne(cancelled, est, q, 1, 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled ctx: err = %v, want context.Canceled", err)
	}

	// Expires mid-sampling: every kernel pass stalls 20ms, so a 5ms deadline
	// survives at most the first inter-column check.
	faultinject.Arm(faultinject.Config{Seed: 2, KernelDelayProb: 1, KernelDelay: 20 * time.Millisecond})
	defer faultinject.Disarm()
	ctx, cancel2 := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel2()
	start := time.Now()
	_, err := estimateOne(ctx, est, q, 1, 2)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("deadline ctx: err = %v, want context.DeadlineExceeded", err)
	}
	// The full plan has many columns; cooperative cancellation must bail out
	// well before all of them stall for 20ms each.
	if elapsed := time.Since(start); elapsed > 500*time.Millisecond {
		t.Fatalf("cancellation took %v; sampling did not stop at the deadline", elapsed)
	}
	faultinject.Disarm()

	// The estimator still serves normally afterwards.
	if _, err := estimateOne(context.Background(), est, q, 1, 3); err != nil {
		t.Fatalf("estimate after deadline failures: %v", err)
	}

	// Per-item contexts in a batch: one expired item fails positionally, the
	// rest of the batch completes.
	items := []core.BatchItem{
		{Query: q, Seed: 1, Idx: 10},
		{Query: q, Seed: 1, Idx: 11, Ctx: cancelled},
		{Query: q, Seed: 1, Idx: 12},
	}
	ests, errs := est.EstimateItems(items, 2)
	if !errors.Is(errs[1], context.Canceled) {
		t.Fatalf("item 1 err = %v, want context.Canceled", errs[1])
	}
	for _, i := range []int{0, 2} {
		if errs[i] != nil || ests[i] < 1 {
			t.Fatalf("item %d = (%g, %v), want a live estimate", i, ests[i], errs[i])
		}
	}
}

// TestEstimatePanicPositional: an injected panic inside an estimate must
// surface as an ErrEstimatePanic positional error — never unwind the batch
// worker — and the estimator (and its session pool) must keep serving
// correctly afterwards.
func TestEstimatePanicPositional(t *testing.T) {
	est := trainedEstimator(t)
	q := query.Query{Tables: []string{"B", "C"}}

	faultinject.Arm(faultinject.Config{Seed: 3, EstimatePanicProb: 1})
	items := []core.BatchItem{
		{Query: q, Seed: 1, Idx: 1},
		{Query: q, Seed: 1, Idx: 2},
		{Query: q, Seed: 1, Idx: 3},
	}
	_, errs := est.EstimateItems(items, 2)
	for i, err := range errs {
		if !errors.Is(err, core.ErrEstimatePanic) {
			t.Fatalf("item %d err = %v, want ErrEstimatePanic", i, err)
		}
	}
	if _, err := estimateOne(context.Background(), est, q, 1, 4); !errors.Is(err, core.ErrEstimatePanic) {
		t.Fatalf("single-path err = %v, want ErrEstimatePanic", err)
	}
	faultinject.Disarm()

	// Recovery: fresh sessions, correct results, unchanged determinism.
	want, err := estimateOne(context.Background(), est, q, 9, 9)
	if err != nil {
		t.Fatalf("estimate after panics: %v", err)
	}
	got, err := est.EstimateSeededIndexed(q, 9, 9)
	if err != nil || got != want {
		t.Fatalf("post-panic determinism: (%g, %v), want (%g, nil)", got, err, want)
	}
}

// TestWriteCheckpointFileTruncationNeverClobbers: a torn checkpoint save must
// fail loudly, leave the previous checkpoint byte-identical, and leave no
// temp-file debris; a later healthy save must land atomically and reload.
func TestWriteCheckpointFileTruncationNeverClobbers(t *testing.T) {
	est := checkpointEstimator(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "model.ckpt")

	if err := core.WriteCheckpointFile(est, path); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	faultinject.Arm(faultinject.Config{Seed: 1, CheckpointTruncateProb: 1, CheckpointTruncateAt: 64})
	err = core.WriteCheckpointFile(est, path)
	faultinject.Disarm()
	if !errors.Is(err, faultinject.ErrInjectedTruncation) {
		t.Fatalf("torn save err = %v, want ErrInjectedTruncation", err)
	}

	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(after) != string(before) {
		t.Fatal("torn save modified the existing checkpoint")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "model.ckpt" {
		names := make([]string, 0, len(entries))
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Fatalf("directory after torn save = %v, want just model.ckpt", names)
	}

	// A healthy save over the old file still works and reloads.
	if err := core.WriteCheckpointFile(est, path); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := core.LoadCheckpoint(f); err != nil {
		t.Fatalf("reload after atomic save: %v", err)
	}
}
