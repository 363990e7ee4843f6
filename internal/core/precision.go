package core

import (
	"context"
	"fmt"
	"math/rand"

	"neurocard/internal/made"
	"neurocard/internal/nn"
	"neurocard/internal/query"
)

// Precision selects the element width of the serving kernels (DESIGN.md
// §1.4). Checkpoints and training always run float64 — precision only
// changes the inference path behind the session abstraction.
type Precision string

const (
	// PrecisionFloat64 serves on kernels that alias the trainable float64
	// parameters directly: zero conversion, bit-reproducible against the
	// reference kernels to the repo's 1e-9 equivalence convention. The
	// default.
	PrecisionFloat64 Precision = "float64"
	// PrecisionFloat32 serves on a float32 kernel set converted once from
	// the float64 masters at estimator load (made.Model.weights32): half the
	// resident serving-weight bytes and wider effective SIMD, gated by the
	// measured q-error delta rather than bit equivalence.
	PrecisionFloat32 Precision = "float32"
)

// ParsePrecision canonicalizes a user-facing precision spelling. The empty
// string selects the default (float64), so zero-valued configs — including
// checkpoints written before precision existed — keep their exact behavior.
func ParsePrecision(s string) (Precision, error) {
	switch s {
	case "", "float64", "f64", "64":
		return PrecisionFloat64, nil
	case "float32", "f32", "32":
		return PrecisionFloat32, nil
	}
	return "", fmt.Errorf("core: unknown precision %q (want float64 or float32)", s)
}

// resolve maps the zero value to the default width without erroring; any
// string that is not exactly PrecisionFloat32 serves at float64 (construction
// paths validate spellings up front via ParsePrecision).
func (p Precision) resolve() Precision {
	if p == PrecisionFloat32 {
		return PrecisionFloat32
	}
	return PrecisionFloat64
}

// engineSession is one checked-out serving session, already bound to a
// concrete element width. The width-agnostic Estimator entry points run
// entirely against this seam; *inferStateOf[T] is the only implementation,
// so the interface costs one indirection at checkout and none inside the
// sampling loop.
type engineSession interface {
	estimateSeeded(ctx context.Context, q query.Query, seed, idx int64) (float64, error)
	estimateSafe(ctx context.Context, q query.Query, seed, idx int64) (est float64, err error, panicked bool)
	estimateWithSamples(ctx context.Context, q query.Query, nSamples int, rng *rand.Rand) (float64, error)
	release()
	discard()
}

// engine hands out serving sessions at the estimator's configured precision.
type engine interface {
	acquire(rows int, serial bool) engineSession
	stats() (free, inUse int)
}

// poolEngine binds a session pool at width T to its estimator: acquire
// stamps the estimator back-reference so a checked-out state can plan and
// sample without the caller ever naming T.
type poolEngine[T nn.Elem] struct {
	e    *Estimator
	pool *sessionPool[T]
}

func (en *poolEngine[T]) acquire(rows int, serial bool) engineSession {
	st := en.pool.get(rows, serial)
	st.e = en.e
	return st
}

func (en *poolEngine[T]) stats() (free, inUse int) { return en.pool.stats() }

// Precision reports the serving precision the estimator currently runs at.
func (e *Estimator) Precision() Precision { return e.cfg.Precision.resolve() }

// SetPrecision switches the serving precision, rebuilding the session pool
// at the new width; the compiled-plan cache carries no element-width state
// and survives the switch. Float32 serving requires a trainable MADE model
// (generic ProbSources speak float64 only). Not safe to call concurrently
// with in-flight estimates: sessions already checked out keep their old
// width until returned, so switch before serving traffic — the registry
// does this at model load.
func (e *Estimator) SetPrecision(p Precision) error {
	prec, err := ParsePrecision(string(p))
	if err != nil {
		return err
	}
	if prec == PrecisionFloat32 {
		if _, ok := e.model.(*made.Model); !ok {
			return fmt.Errorf("core: float32 serving requires a MADE model (conditional source %T serves float64 only)", e.model)
		}
	}
	e.cfg.Precision = prec
	e.initSessions()
	return nil
}

// ServingWeightBytes reports the resident bytes of the weights the serving
// kernels read: NumParams × 4 at float32; NumParams × 8 at float64, plus the
// float64 view's derived layouts on AVX hosts (made.Model.DerivedBytes64).
// At float32 the float64 masters additionally stay resident for training
// and checkpointing — this gauge tracks the serving working set (what the
// per-query forward passes stream through cache), not total process memory.
func (e *Estimator) ServingWeightBytes() int {
	if e.trainable == nil {
		return 0
	}
	n := e.trainable.NumParams()
	if e.Precision() == PrecisionFloat32 {
		return n * 4
	}
	return n*8 + e.trainable.DerivedBytes64()
}
