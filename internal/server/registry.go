package server

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	hist "neurocard/internal/baselines/histogram"
	"neurocard/internal/core"
	"neurocard/internal/shard"
)

// Entry is one loaded model: an immutable snapshot handed out to requests.
// Entries are never mutated after publication — a reload publishes a new
// Entry — so a request that grabbed one keeps a consistent (estimator,
// metadata) pair for its whole lifetime regardless of concurrent swaps.
//
// Breaker and Fallback are the entry's fault-tolerance companions, built at
// install time (nil when the server disables them): the circuit breaker
// tracks this model generation's health — a hot swap starts a fresh breaker,
// since a replacement model deserves its own track record — and the
// histogram baseline answers in the model's stead while the breaker is open.
// The breaker's internal counters mutate, but the pointer itself is
// immutable like the rest of the entry.
type Entry struct {
	Name     string
	Path     string
	Est      *core.Estimator
	LoadedAt time.Time
	Gen      int // reload generation of this name, starting at 1

	Breaker  *breaker
	Fallback *hist.Estimator
}

// Registry maps model names to loaded estimators. Lookups by name take a
// read lock; the default model is an atomic pointer so the common hot path
// (no explicit model in the request) is lock-free. Hot swap replaces the
// published *Entry; in-flight requests keep serving from the entry they
// already hold (each estimator owns its session pool), and the old model is
// garbage-collected once the last request drains.
type Registry struct {
	dir string

	// Fault-tolerance factories, set by the owning Server before any load
	// (nil = feature off): newBreaker builds each entry's circuit breaker,
	// newFallback its shadow estimator.
	newBreaker  func() *breaker
	newFallback func(est *core.Estimator) *hist.Estimator

	// defaultPrecision is applied to every load that names no precision of
	// its own (Server Config.DefaultPrecision / the daemon's -precision
	// flag). Empty keeps each checkpoint's stored precision.
	defaultPrecision core.Precision

	quarantined atomic.Int64 // corrupt checkpoints moved aside by Load

	mu       sync.RWMutex
	models   map[string]*Entry
	logicals map[string]*Logical
	// retired accumulates the lifetime counters of replaced or unloaded
	// generations per model name, so the /metrics counters built from the
	// current entry's stats stay monotone across hot swaps.
	retired map[string]RetiredTotals
	def     atomic.Pointer[Entry]
}

// RetiredTotals carries the counters of a model name's retired generations.
// A hot swap publishes a fresh estimator (and breaker) whose counters start
// at zero; the registry banks the outgoing generation's totals here at swap
// time and the scrape path adds them back in, so neurocard_plan_cache_* and
// neurocard_breaker_opens_total never go backwards after a reload.
type RetiredTotals struct {
	PlanHits          int64
	PlanMisses        int64
	PlanEvictions     int64
	PlanInvalidations int64
	BreakerOpens      int64
	// DataGenerations accumulates retired generations' data-snapshot counts,
	// so neurocard_data_generation keeps climbing across hot swaps instead of
	// resetting with each fresh estimator.
	DataGenerations int64
}

// Logical groups shard entries into one servable logical model: the
// manifest's planner routes queries to shard names, which are resolved
// against the registry per request — so each shard hot-swaps independently
// and the logical model always serves the freshest generation of every
// shard. Immutable after publication, like Entry.
type Logical struct {
	Name     string
	Path     string // manifest file path
	Man      *shard.Manifest
	Planner  *shard.Planner
	LoadedAt time.Time
	Gen      int
}

// modelNameRE restricts registry names to path-safe tokens, so names can be
// mapped onto checkpoint files under the models directory without traversal.
var modelNameRE = regexp.MustCompile(`^[a-zA-Z0-9][a-zA-Z0-9._-]*$`)

// NewRegistry creates a registry resolving relative model names under dir
// (may be empty if models are always loaded from explicit paths).
func NewRegistry(dir string) *Registry {
	return &Registry{
		dir:      dir,
		models:   make(map[string]*Entry),
		logicals: make(map[string]*Logical),
		retired:  make(map[string]RetiredTotals),
	}
}

// Dir returns the registry's models directory.
func (r *Registry) Dir() string { return r.dir }

// CheckpointPath resolves the on-disk checkpoint file for a model name:
// <dir>/<name>.ckpt.
func (r *Registry) CheckpointPath(name string) string {
	return filepath.Join(r.dir, name+".ckpt")
}

// ValidateName rejects names that cannot be registry keys.
func ValidateName(name string) error {
	if !modelNameRE.MatchString(name) {
		return fmt.Errorf("server: invalid model name %q (want %s)", name, modelNameRE)
	}
	return nil
}

// Load reads the checkpoint at path (or the registry's conventional path for
// name when path is empty), restores the estimator at the registry's default
// precision, and publishes it under name. If the name exists, the entry is
// atomically replaced (hot swap); if no default model is set yet, the new
// entry becomes the default.
func (r *Registry) Load(name, path string) (*Entry, error) {
	return r.LoadPrecision(name, path, "")
}

// LoadPrecision is Load with an explicit serving precision for this model:
// checkpoints always store float64 weights, so precision is a per-load
// serving decision — float32 converts the kernel set once here, before the
// entry is published (conversion-at-load, DESIGN.md §1.4). Empty falls back
// to the registry default, and failing that the checkpoint's own stored
// precision. Two models at different precisions serve concurrently; a hot
// swap may change a model's precision without touching its checkpoint.
func (r *Registry) LoadPrecision(name, path string, prec core.Precision) (*Entry, error) {
	if err := ValidateName(name); err != nil {
		return nil, err
	}
	if path == "" {
		path = r.CheckpointPath(name)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("server: load model %q: %w", name, err)
	}
	defer f.Close()
	est, err := core.LoadCheckpoint(f)
	if err != nil {
		// The file failed validation: quarantine it so a crashed or corrupt
		// checkpoint can't be retried forever (or silently picked up by a
		// restart), and keep whatever entry this name already serves — a
		// failed reload must never take down a healthy model.
		err = fmt.Errorf("server: load model %q: %w", name, err)
		qpath := path + ".corrupt"
		if renameErr := os.Rename(path, qpath); renameErr == nil {
			r.quarantined.Add(1)
			err = fmt.Errorf("%w (checkpoint quarantined to %s)", err, qpath)
		}
		return nil, err
	}
	if prec == "" {
		prec = r.defaultPrecision
	}
	if prec != "" {
		// A bad precision is a caller mistake, not a corrupt checkpoint: fail
		// the load without quarantining the file.
		if err := est.SetPrecision(prec); err != nil {
			return nil, fmt.Errorf("server: load model %q: %w", name, err)
		}
	}
	return r.Install(name, path, est)
}

// Quarantined reports how many corrupt checkpoints Load has moved aside.
func (r *Registry) Quarantined() int64 { return r.quarantined.Load() }

// Install publishes an already-restored estimator under name (the daemon's
// preload path and the test seam). Swap semantics match Load.
func (r *Registry) Install(name, path string, est *core.Estimator) (*Entry, error) {
	if err := ValidateName(name); err != nil {
		return nil, err
	}
	e := &Entry{Name: name, Path: path, Est: est, LoadedAt: time.Now()}
	if r.newBreaker != nil {
		e.Breaker = r.newBreaker()
	}
	if r.newFallback != nil {
		// Built outside the lock: the ANALYZE pass scans every table.
		e.Fallback = r.newFallback(est)
	}
	r.mu.Lock()
	if _, clash := r.logicals[name]; clash {
		r.mu.Unlock()
		return nil, fmt.Errorf("server: name %q is a logical model", name)
	}
	e.Gen = 1
	if prev, ok := r.models[name]; ok {
		e.Gen = prev.Gen + 1
		r.retireLocked(prev)
	}
	r.models[name] = e
	// Become the default if there is none, or swap the default in place when
	// the default model itself was reloaded.
	if cur := r.def.Load(); cur == nil || cur.Name == name {
		r.def.Store(e)
	}
	r.mu.Unlock()
	return e, nil
}

// SetDefault marks an already-loaded model as the default for requests that
// name no model. Lookup and pointer store happen under the write lock so a
// concurrent Install of the same name cannot leave the default pointing at
// an entry the registry no longer holds.
func (r *Registry) SetDefault(name string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.models[name]
	if !ok {
		return fmt.Errorf("server: model %q is not loaded", name)
	}
	r.def.Store(e)
	return nil
}

// errNotLoaded is wrapped by every failed Get, so an estimate answers 404
// however late its lookup runs: the coalescer resolves the model again when
// it flushes, and an Unload may land between the handler's lookup and that
// flush.
var errNotLoaded = errors.New("not loaded")

// Get returns the named model, or the default when name is empty.
func (r *Registry) Get(name string) (*Entry, error) {
	if name == "" {
		if e := r.def.Load(); e != nil {
			return e, nil
		}
		return nil, fmt.Errorf("server: default model %w", errNotLoaded)
	}
	r.mu.RLock()
	e, ok := r.models[name]
	r.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("server: model %q is %w", name, errNotLoaded)
	}
	return e, nil
}

// List returns all loaded entries sorted by name, plus the current default
// (nil if none).
func (r *Registry) List() ([]*Entry, *Entry) {
	r.mu.RLock()
	out := make([]*Entry, 0, len(r.models))
	for _, e := range r.models {
		out = append(out, e)
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, r.def.Load()
}

// Len returns the number of loaded models.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.models)
}

// retireLocked banks an outgoing entry's lifetime counters. Caller holds
// the write lock.
func (r *Registry) retireLocked(prev *Entry) {
	t := r.retired[prev.Name]
	ps := prev.Est.PlanCacheStats()
	t.PlanHits += ps.Hits
	t.PlanMisses += ps.Misses
	t.PlanEvictions += ps.Evictions
	t.PlanInvalidations += ps.Invalidations
	t.DataGenerations += prev.Est.DataGeneration()
	if prev.Breaker != nil {
		t.BreakerOpens += prev.Breaker.opens.Load()
	}
	r.retired[prev.Name] = t
}

// Snapshot returns the loaded entries (sorted by name) together with the
// retired-counter totals, captured under one read lock. The scrape path
// must take both in a single consistent view: reading entry stats first and
// retired totals second would double-count a generation retired between the
// two reads.
func (r *Registry) Snapshot() ([]*Entry, map[string]RetiredTotals) {
	r.mu.RLock()
	entries := make([]*Entry, 0, len(r.models))
	for _, e := range r.models {
		entries = append(entries, e)
	}
	retired := make(map[string]RetiredTotals, len(r.retired))
	for name, t := range r.retired {
		retired[name] = t
	}
	r.mu.RUnlock()
	sort.Slice(entries, func(i, j int) bool { return entries[i].Name < entries[j].Name })
	return entries, retired
}

// Unload removes a model (or logical model) from the registry. In-flight
// requests holding the entry finish normally; new requests naming it get a
// not-loaded error. When the unloaded model was the default, the default is
// re-elected under the same write lock — the remaining model with the
// smallest name, or cleared when none remain — so Get("") never observes a
// default the registry no longer holds. The entry's counters are banked in
// the retired totals, keeping /metrics monotone across an unload/reload
// cycle. Unloading a logical model removes only the grouping; its shard
// entries stay loaded and individually addressable. Unloading a shard out
// from under a logical model is allowed — estimates needing that shard fail
// with 503 until it is reloaded.
func (r *Registry) Unload(name string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.logicals[name]; ok {
		delete(r.logicals, name)
		return nil
	}
	e, ok := r.models[name]
	if !ok {
		return fmt.Errorf("server: model %q is not loaded", name)
	}
	r.retireLocked(e)
	delete(r.models, name)
	if cur := r.def.Load(); cur != nil && cur.Name == name {
		var next *Entry
		for _, m := range r.models {
			if next == nil || m.Name < next.Name {
				next = m
			}
		}
		r.def.Store(next) // nil clears the default
	}
	return nil
}

// ManifestPath resolves the on-disk manifest file for a logical model name:
// <dir>/<name>.manifest.json.
func (r *Registry) ManifestPath(name string) string {
	return shard.ManifestPath(r.dir, name)
}

// LoadLogical reads a shard manifest (the registry's conventional path for
// name when path is empty), loads every shard checkpoint it lists —
// hot-swapping shards already present — and publishes the group under the
// logical name. Shard checkpoints resolve relative to the manifest's
// directory. A failed shard load aborts the logical publish but leaves any
// shards already loaded, matching the hot-swap contract: a failed reload
// never takes down a healthy model.
func (r *Registry) LoadLogical(name, path string) (*Logical, error) {
	if err := ValidateName(name); err != nil {
		return nil, err
	}
	if path == "" {
		path = r.ManifestPath(name)
	}
	man, err := shard.Load(path)
	if err != nil {
		return nil, err
	}
	if man.Logical != name {
		return nil, fmt.Errorf("server: manifest %s describes logical model %q, not %q", path, man.Logical, name)
	}
	dir := filepath.Dir(path)
	for _, spec := range man.Shards {
		ckpt := spec.Checkpoint
		if ckpt == "" {
			ckpt = spec.Name + ".ckpt"
		}
		if !filepath.IsAbs(ckpt) {
			ckpt = filepath.Join(dir, ckpt)
		}
		if _, err := r.LoadPrecision(spec.Name, ckpt, ""); err != nil {
			return nil, fmt.Errorf("server: logical model %q: %w", name, err)
		}
	}
	return r.InstallLogical(name, path, man)
}

// InstallLogical publishes a manifest whose shard entries are already
// loaded (LoadLogical's tail and the preload/test seam). The logical name
// must not collide with a concrete model, and every shard it references
// must be present at publish time.
func (r *Registry) InstallLogical(name, path string, man *shard.Manifest) (*Logical, error) {
	if err := ValidateName(name); err != nil {
		return nil, err
	}
	pl, err := shard.NewPlanner(man)
	if err != nil {
		return nil, err
	}
	lg := &Logical{Name: name, Path: path, Man: man, Planner: pl, LoadedAt: time.Now()}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, clash := r.models[name]; clash {
		return nil, fmt.Errorf("server: name %q is already a loaded model", name)
	}
	for _, spec := range man.Shards {
		if _, ok := r.models[spec.Name]; !ok {
			return nil, fmt.Errorf("server: logical model %q: shard %q is not loaded", name, spec.Name)
		}
	}
	lg.Gen = 1
	if prev, ok := r.logicals[name]; ok {
		lg.Gen = prev.Gen + 1
	}
	r.logicals[name] = lg
	return lg, nil
}

// GetLogical returns the named logical model, or nil when the name is not a
// logical model. Logical models are addressed by explicit name only — they
// never serve as the default model.
func (r *Registry) GetLogical(name string) *Logical {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.logicals[name]
}

// ListLogical returns the published logical models sorted by name.
func (r *Registry) ListLogical() []*Logical {
	r.mu.RLock()
	out := make([]*Logical, 0, len(r.logicals))
	for _, lg := range r.logicals {
		out = append(out, lg)
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
