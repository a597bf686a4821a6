package core

import (
	"repro/internal/fft"
	"repro/internal/mpisim"
	"repro/internal/tensor"
)

// RealField is one rank's share of a distributed real-valued 3-D array — the
// input of real-to-complex transforms. Real elements are 8 bytes, so the
// input reshapes of an R2C plan move half the bytes of a complex transform;
// this is why the paper's comparisons (AccFFT's "large real-to-complex
// transforms", LAMMPS' charge grids) care about native R2C support.
type RealField struct {
	Box  tensor.Box3
	Data []float64 // nil for phantom fields
}

// NewRealField allocates a zero real field covering the box.
func NewRealField(b tensor.Box3) *RealField {
	return &RealField{Box: b, Data: make([]float64, b.Volume())}
}

// NewRealPhantom returns a size-only real field.
func NewRealPhantom(b tensor.Box3) *RealField {
	return &RealField{Box: b}
}

// Phantom reports whether the field carries no data.
func (f *RealField) Phantom() bool { return f.Data == nil }

// RealConfig describes a distributed real-to-complex transform.
type RealConfig struct {
	// Global is the real grid extents (N0, N1, N2); N2 must be even.
	Global [3]int
	// InBoxes distribute the real grid; OutBoxes distribute the Hermitian
	// half grid (N0, N1, N2/2+1). Nil selects minimum-surface bricks.
	InBoxes  []tensor.Box3
	OutBoxes []tensor.Box3
	Opts     Options
}

// RealPlan is a collectively created distributed R2C/C2R plan: the typed
// front of a Plan whose stage list reshapes the real input to z-pencils (at 8
// bytes/element), runs the local real-to-complex transform along axis 2, and
// continues with the complex pencil pipeline on the half grid. The inverse
// walks that list backwards through a local c2r stage. Execution is Plan's,
// so batching, fault context, ABFT invariants and the accuracy budget apply
// unchanged. Options.Decomp is ignored (R2C always runs pencils) and
// Options.Checkpoints is rejected.
type RealPlan struct {
	plan *Plan
}

// NewRealPlan collectively creates an R2C plan; all ranks pass identical
// RealConfig.
func NewRealPlan(c *mpisim.Comm, cfg RealConfig) (*RealPlan, error) {
	p, err := newPlan(c, Config(cfg), true)
	if err != nil {
		return nil, err
	}
	return &RealPlan{plan: p}, nil
}

// halfGrid returns the Hermitian half grid (N0, N1, N2/2+1) of a real grid.
func halfGrid(g [3]int) [3]int { return [3]int{g[0], g[1], g[2]/2 + 1} }

// Close marks the plan unusable; subsequent executions return ErrPlanClosed.
// Close is idempotent and local to this rank.
func (p *RealPlan) Close() error { return p.plan.Close() }

// InBox returns this rank's real-grid input box; OutBox the half-grid output
// box.
func (p *RealPlan) InBox() tensor.Box3  { return p.plan.inBox }
func (p *RealPlan) OutBox() tensor.Box3 { return p.plan.outBox }

// HalfGlobal returns the Hermitian half-grid extents (N0, N1, N2/2+1).
func (p *RealPlan) HalfGlobal() [3]int { return halfGrid(p.plan.global) }

// Forward transforms a real field into its half-spectrum, returned as a
// complex field distributed over OutBoxes.
func (p *RealPlan) Forward(rf *RealField) (*Field, error) {
	fs, err := p.ForwardBatch([]*RealField{rf})
	if err != nil {
		return nil, err
	}
	return fs[0], nil
}

// ForwardBatch transforms a batch of real fields through fused exchanges,
// like Plan.ForwardBatch (the Fig. 13 batching feature, here for R2C). The
// input fields are left as they are.
func (p *RealPlan) ForwardBatch(rfs []*RealField) ([]*Field, error) {
	fields := make([]*Field, len(rfs))
	for i, rf := range rfs {
		fields[i] = &Field{Box: rf.Box, real: rf.Data}
	}
	if err := p.plan.execute(fields, fft.Forward); err != nil {
		return nil, err
	}
	return fields, nil
}

// Inverse transforms a half-spectrum field (distributed over OutBoxes) back
// to a real field over InBoxes, scaled so Inverse(Forward(x)) == x.
func (p *RealPlan) Inverse(f *Field) (*RealField, error) {
	rfs, err := p.InverseBatch([]*Field{f})
	if err != nil {
		return nil, err
	}
	return rfs[0], nil
}

// InverseBatch is the batched complex-to-real transform. The input fields
// keep their box and array (whose contents a stage may overwrite in place).
func (p *RealPlan) InverseBatch(fs []*Field) ([]*RealField, error) {
	fields := make([]*Field, len(fs))
	for i, f := range fs {
		fields[i] = &Field{Box: f.Box, Data: f.Data}
	}
	if err := p.plan.execute(fields, fft.Inverse); err != nil {
		return nil, err
	}
	rfs := make([]*RealField, len(fields))
	for i, f := range fields {
		rfs[i] = &RealField{Box: f.Box, Data: f.real}
	}
	return rfs, nil
}
