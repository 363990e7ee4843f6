package made

import (
	"encoding/gob"
	"fmt"

	"neurocard/internal/nn"
)

// wireVersion identifies the full-precision weight stream layout written by
// EncodeInto. Bump on any change to the section order or element types.
const wireVersion = 1

// fullHeader is the preamble of the full-precision (float64) weight stream
// embedded in estimator checkpoints.
type fullHeader struct {
	WireVersion int
	Config      Config
	Doms        []int
	SamplesSeen int
}

// EncodeInto writes the model — configuration, domains, and all weights at
// full float64 precision — onto an existing gob stream. It is the model
// section of estimator checkpoints (core.SaveCheckpoint): the full-precision
// stream restores a model whose estimates are bit-identical to the
// original's, which is what makes checkpoint round-trip equivalence testable
// to 1e-9.
func (m *Model) EncodeInto(enc *gob.Encoder) error {
	hdr := fullHeader{
		WireVersion: wireVersion,
		Config:      m.cfg,
		Doms:        m.doms,
		SamplesSeen: m.samplesSeen,
	}
	if err := enc.Encode(hdr); err != nil {
		return fmt.Errorf("made: encode header: %w", err)
	}
	for _, p := range m.params {
		if err := enc.Encode(p.Val.Data); err != nil {
			return fmt.Errorf("made: encode %s: %w", p.Name, err)
		}
	}
	return nil
}

// DecodeFrom reconstructs a model written by EncodeInto, reading exactly the
// model section from the gob stream and leaving the decoder positioned after
// it.
func DecodeFrom(dec *gob.Decoder) (*Model, error) {
	var hdr fullHeader
	if err := dec.Decode(&hdr); err != nil {
		return nil, fmt.Errorf("made: decode header: %w", err)
	}
	if hdr.WireVersion != wireVersion {
		return nil, fmt.Errorf("made: unsupported model wire version %d (want %d)", hdr.WireVersion, wireVersion)
	}
	m, err := New(hdr.Config, hdr.Doms)
	if err != nil {
		return nil, err
	}
	m.samplesSeen = hdr.SamplesSeen
	for _, p := range m.params {
		var data []float64
		if err := dec.Decode(&data); err != nil {
			return nil, fmt.Errorf("made: decode %s: %w", p.Name, err)
		}
		if len(data) != len(p.Val.Data) {
			return nil, fmt.Errorf("made: decode %s: %d values, want %d", p.Name, len(data), len(p.Val.Data))
		}
		copy(p.Val.Data, data)
	}
	// Masked slots are exactly zero in any model produced by training (the
	// masks are enforced on weights and gradients), but coerce them anyway:
	// the prefix-restricted trunk passes rely on it, and foreign streams get
	// corrected instead of silently corrupting inference.
	nn.Hadamard(m.inW.Val, m.inW.Val, m.inMask)
	for _, blk := range m.blocks {
		nn.Hadamard(blk.w1.Val, blk.w1.Val, m.hhMask)
		nn.Hadamard(blk.w2.Val, blk.w2.Val, m.hhMask)
	}
	return m, nil
}

// Config returns the model's configuration.
func (m *Model) Config() Config { return m.cfg }

// Domains returns the column domain sizes.
func (m *Model) Domains() []int { return append([]int(nil), m.doms...) }
