package core

import (
	"encoding/gob"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"

	"neurocard/internal/faultinject"
	"neurocard/internal/made"
	"neurocard/internal/sampler"
	"neurocard/internal/schema"
	"neurocard/internal/table"
	"neurocard/internal/value"
)

// Checkpoint format: a full-estimator snapshot that restores to a
// ready-to-serve *Estimator across process restarts (the serving daemon's
// model files). Layout, in stream order:
//
//	magic     8 raw bytes ("NCRDCKPT")
//	header    gob: format version, normalized Config, join size, encoder shape
//	schema    gob: root, edges, tables (dictionaries + row IDs)
//	content   gob: explicit per-table modeled-column lists (encoder order)
//	weights   gob: per-table join-count vectors (sampler state)
//	model     gob: made full-precision section (float64 weights)
//
// Everything lives in one gob stream after the magic, so decode errors carry
// positions and truncated files fail cleanly. Weights are stored at full
// float64 precision — not the paper's float32 size accounting — because the
// format guarantees a restored estimator's estimates are bit-identical to the
// original's at a fixed seed.
const (
	checkpointMagic = "NCRDCKPT"

	// CheckpointVersion is the on-disk format version written by
	// SaveCheckpoint. LoadCheckpoint also reads version 1, which stored the
	// join-count tables as a gob map — randomized iteration order made two
	// saves of the same estimator byte-different; version 2 stores them as a
	// slice in schema table order so identical estimators save identically.
	CheckpointVersion = 2
)

// ckptHeader opens the checkpoint: version gate plus the two global scalars
// restore validates against (join size, encoder shape).
type ckptHeader struct {
	Version  int
	Config   Config // ContentCols cleared; the explicit section is authoritative
	JoinSize float64
	FlatDoms []int
}

// ckptColumn serializes one dictionary-encoded column.
type ckptColumn struct {
	Name    string
	Kind    uint8 // value.Kind
	IDs     []int32
	IntDict []int64
	StrDict []string
}

// ckptTable serializes one table's columns in declaration order.
type ckptTable struct {
	Name string
	Cols []ckptColumn
}

// ckptEdge mirrors schema.Edge.
type ckptEdge struct {
	LeftTable, LeftCol   string
	RightTable, RightCol string
}

// ckptSchema serializes the join tree with full table payloads.
type ckptSchema struct {
	Root   string
	Tables []ckptTable
	Edges  []ckptEdge
}

// ckptWeights serializes one table's join-count vector. Tables are written
// in schema order (not map order) so the byte stream is deterministic.
type ckptWeights struct {
	Table string
	W     []float64
}

// ckptContent pins down the modeled content columns of one table explicitly.
// Resolving the nil-ContentCols default ("model every non-join-key column")
// at save time makes restore independent of that convention ever changing.
type ckptContent struct {
	Table string
	Cols  []string
}

// SaveCheckpoint writes a full-estimator checkpoint: schema metadata
// (dictionaries and row IDs), the encoder/factorization configuration, the
// sampler's join-count tables, and the model weights at full precision.
//
// Version-1 checkpoints require the estimator's domain and data schemas to
// coincide (the standard Build path); snapshot-bound estimators
// (BuildWithDomain with distinct schemas) are not yet supported.
func SaveCheckpoint(e *Estimator, w io.Writer) error {
	if e.trainable == nil {
		return fmt.Errorf("core: checkpoint: estimator has no trainable model (oracle-backed estimators cannot be checkpointed)")
	}
	if e.domain != e.data {
		return fmt.Errorf("core: checkpoint: estimator models a data snapshot distinct from its domain schema; v%d checkpoints support Build estimators only", CheckpointVersion)
	}
	if _, err := io.WriteString(w, checkpointMagic); err != nil {
		return fmt.Errorf("core: checkpoint: write magic: %w", err)
	}
	enc := gob.NewEncoder(w)

	cfg := e.cfg
	cfg.ContentCols = nil // the explicit content section is authoritative
	hdr := ckptHeader{
		Version:  CheckpointVersion,
		Config:   cfg,
		JoinSize: e.joinSize,
		FlatDoms: e.enc.FlatDomains(),
	}
	if err := enc.Encode(hdr); err != nil {
		return fmt.Errorf("core: checkpoint: encode header: %w", err)
	}
	if err := enc.Encode(snapshotSchema(e.domain)); err != nil {
		return fmt.Errorf("core: checkpoint: encode schema: %w", err)
	}
	if err := enc.Encode(snapshotContentCols(e.enc)); err != nil {
		return fmt.Errorf("core: checkpoint: encode content columns: %w", err)
	}
	if err := enc.Encode(snapshotWeights(e.domain, e.smp.Weights())); err != nil {
		return fmt.Errorf("core: checkpoint: encode join counts: %w", err)
	}
	if err := e.trainable.EncodeInto(enc); err != nil {
		return fmt.Errorf("core: checkpoint: %w", err)
	}
	return nil
}

// WriteCheckpointFile saves a checkpoint to path crash-safely: the bytes go
// to a temp file in the destination directory, are fsynced, and only then
// renamed over path. A crash, full disk, or injected truncation at any point
// leaves either the complete new checkpoint or the previous file — never a
// torn one — so a failed save cannot clobber a model the daemon could still
// reload.
func WriteCheckpointFile(e *Estimator, path string) (err error) {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("core: checkpoint: create temp file: %w", err)
	}
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	var w io.Writer = tmp
	if faultinject.Enabled() {
		w = faultinject.WrapCheckpointWriter(w)
	}
	if err = SaveCheckpoint(e, w); err != nil {
		return err
	}
	if err = tmp.Sync(); err != nil {
		return fmt.Errorf("core: checkpoint: fsync: %w", err)
	}
	if err = tmp.Close(); err != nil {
		return fmt.Errorf("core: checkpoint: close temp file: %w", err)
	}
	if err = os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("core: checkpoint: rename into place: %w", err)
	}
	// Durability of the rename itself: fsync the directory. Best-effort —
	// some filesystems refuse directory fsync; the data file is already safe.
	if d, derr := os.Open(dir); derr == nil {
		_ = d.Sync()
		_ = d.Close()
	}
	return nil
}

// snapshotSchema captures the join tree and every table's dictionary-encoded
// payload.
func snapshotSchema(sch *schema.Schema) ckptSchema {
	out := ckptSchema{Root: sch.Root()}
	for _, name := range sch.Tables() {
		t := sch.Table(name)
		ct := ckptTable{Name: name}
		for _, c := range t.Columns() {
			ct.Cols = append(ct.Cols, ckptColumn{
				Name:    c.Name(),
				Kind:    uint8(c.Kind()),
				IDs:     c.IDs(),
				IntDict: c.IntDict(),
				StrDict: c.StrDict(),
			})
		}
		out.Tables = append(out.Tables, ct)
		if pe, ok := sch.Parent(name); ok {
			out.Edges = append(out.Edges, ckptEdge{
				LeftTable: pe.Parent, LeftCol: pe.ParentCol,
				RightTable: name, RightCol: pe.ChildCol,
			})
		}
	}
	return out
}

// snapshotWeights orders the sampler's per-table join-count vectors by the
// schema's table order, making the encoded stream independent of Go's
// randomized map iteration.
func snapshotWeights(sch *schema.Schema, weights map[string][]float64) []ckptWeights {
	out := make([]ckptWeights, 0, len(weights))
	for _, t := range sch.Tables() {
		if w, ok := weights[t]; ok {
			out = append(out, ckptWeights{Table: t, W: w})
		}
	}
	return out
}

// snapshotContentCols lists each table's modeled content columns in encoder
// order. Every table gets an entry (possibly empty), so restore never falls
// back to the model-everything default.
func snapshotContentCols(enc *Encoder) []ckptContent {
	byTable := make(map[string][]string)
	for _, mc := range enc.Columns() {
		if mc.Kind == KindContent {
			byTable[mc.Table] = append(byTable[mc.Table], mc.Col)
		}
	}
	out := make([]ckptContent, 0, len(enc.Tables()))
	for _, t := range enc.Tables() {
		out = append(out, ckptContent{Table: t, Cols: byTable[t]})
	}
	return out
}

// LoadCheckpoint restores a checkpoint written by SaveCheckpoint to a
// ready-to-serve estimator: the schema (with dictionaries), encoder,
// join-count sampler, and model are all rebuilt and cross-validated, so a
// corrupted or truncated file fails with an error instead of serving wrong
// estimates. The restored estimator answers Estimate/EstimateBatch
// immediately and can keep training (Train, UpdateData) like the original.
func LoadCheckpoint(r io.Reader) (*Estimator, error) {
	magic := make([]byte, len(checkpointMagic))
	if _, err := io.ReadFull(r, magic); err != nil {
		return nil, fmt.Errorf("core: checkpoint: read magic: %w", err)
	}
	if string(magic) != checkpointMagic {
		return nil, fmt.Errorf("core: checkpoint: bad magic %q (not a NeuroCard checkpoint)", magic)
	}
	dec := gob.NewDecoder(r)

	var hdr ckptHeader
	if err := dec.Decode(&hdr); err != nil {
		return nil, fmt.Errorf("core: checkpoint: decode header: %w", err)
	}
	if hdr.Version != 1 && hdr.Version != CheckpointVersion {
		return nil, fmt.Errorf("core: checkpoint: unsupported format version %d (want <= %d)", hdr.Version, CheckpointVersion)
	}

	var cs ckptSchema
	if err := dec.Decode(&cs); err != nil {
		return nil, fmt.Errorf("core: checkpoint: decode schema: %w", err)
	}
	sch, err := restoreSchema(cs)
	if err != nil {
		return nil, err
	}

	var contents []ckptContent
	if err := dec.Decode(&contents); err != nil {
		return nil, fmt.Errorf("core: checkpoint: decode content columns: %w", err)
	}
	cfg := hdr.Config
	cfg.ContentCols = make(map[string][]string, len(contents))
	for _, cc := range contents {
		cfg.ContentCols[cc.Table] = cc.Cols
	}

	enc, err := NewEncoder(sch, cfg.ContentCols, cfg.FactBits)
	if err != nil {
		return nil, fmt.Errorf("core: checkpoint: rebuild encoder: %w", err)
	}
	if err := equalDoms(enc.FlatDomains(), hdr.FlatDoms); err != nil {
		return nil, fmt.Errorf("core: checkpoint: encoder shape drifted from checkpoint: %w", err)
	}

	var weights map[string][]float64
	if hdr.Version == 1 {
		// v1 stored the join counts as a gob map.
		if err := dec.Decode(&weights); err != nil {
			return nil, fmt.Errorf("core: checkpoint: decode join counts: %w", err)
		}
	} else {
		var ws []ckptWeights
		if err := dec.Decode(&ws); err != nil {
			return nil, fmt.Errorf("core: checkpoint: decode join counts: %w", err)
		}
		weights = make(map[string][]float64, len(ws))
		for _, cw := range ws {
			weights[cw.Table] = cw.W
		}
	}
	smp, err := sampler.NewFromWeights(sch, weights)
	if err != nil {
		return nil, fmt.Errorf("core: checkpoint: %w", err)
	}
	if !closeRel(smp.JoinSize(), hdr.JoinSize, 1e-9) {
		return nil, fmt.Errorf("core: checkpoint: restored join size %g differs from stored %g (corrupted join counts?)", smp.JoinSize(), hdr.JoinSize)
	}

	model, err := made.DecodeFrom(dec)
	if err != nil {
		return nil, fmt.Errorf("core: checkpoint: %w", err)
	}
	if err := equalDoms(model.Domains(), hdr.FlatDoms); err != nil {
		return nil, fmt.Errorf("core: checkpoint: model shape does not match encoder: %w", err)
	}

	view, err := enc.bind(sch)
	if err != nil {
		return nil, fmt.Errorf("core: checkpoint: %w", err)
	}
	e := &Estimator{
		domain:    sch,
		data:      sch,
		enc:       enc,
		view:      view,
		smp:       smp,
		model:     model,
		trainable: model,
		joinSize:  smp.JoinSize(),
		cfg:       cfg,
		rng:       rand.New(rand.NewSource(cfg.Seed)),
	}
	e.initSessions()
	return e, nil
}

// restoreSchema rebuilds tables and the join tree from the serialized form.
func restoreSchema(cs ckptSchema) (*schema.Schema, error) {
	tables := make([]*table.Table, 0, len(cs.Tables))
	for _, ct := range cs.Tables {
		cols := make([]*table.Column, 0, len(ct.Cols))
		for _, cc := range ct.Cols {
			c, err := table.NewColumnFromRaw(cc.Name, value.Kind(cc.Kind), cc.IDs, cc.IntDict, cc.StrDict)
			if err != nil {
				return nil, fmt.Errorf("core: checkpoint: table %q: %w", ct.Name, err)
			}
			cols = append(cols, c)
		}
		t, err := table.NewFromColumns(ct.Name, cols)
		if err != nil {
			return nil, fmt.Errorf("core: checkpoint: %w", err)
		}
		tables = append(tables, t)
	}
	edges := make([]schema.Edge, 0, len(cs.Edges))
	for _, e := range cs.Edges {
		edges = append(edges, schema.Edge{
			LeftTable: e.LeftTable, LeftCol: e.LeftCol,
			RightTable: e.RightTable, RightCol: e.RightCol,
		})
	}
	sch, err := schema.New(tables, cs.Root, edges)
	if err != nil {
		return nil, fmt.Errorf("core: checkpoint: rebuild schema: %w", err)
	}
	return sch, nil
}

// equalDoms compares two domain-size vectors.
func equalDoms(got, want []int) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d flat columns, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("flat column %d has domain %d, want %d", i, got[i], want[i])
		}
	}
	return nil
}

// closeRel reports |a-b| <= tol·max(|a|,|b|) with exact equality accepted.
func closeRel(a, b, tol float64) bool {
	if a == b {
		return true
	}
	m := math.Max(math.Abs(a), math.Abs(b))
	return math.Abs(a-b) <= tol*m
}
