package core

import (
	"fmt"

	"repro/internal/fft"
	"repro/internal/mpisim"
)

// Pipelined execution: the per-entry mode of the stage loop. Each batch
// entry's exchange is posted as its own non-blocking MPI_Ialltoallv and
// other entries' local FFTs run while the messages fly — the explicit
// asynchronous-overlap technique of the turbulence/GPUDirect studies the
// paper cites ([28], [34], [35]). It trades the message fusion of
// ForwardBatch (fewer, bigger messages) for finer-grained overlap, and is
// exposed so the two batching strategies can be compared (the `async`
// ablation experiment).

// ForwardPipelined transforms a batch with per-entry asynchronous exchanges.
// Requires the Alltoallv backend (the only one with a non-blocking variant
// here, mirroring MPI_Ialltoallv) and a plan without Options.Checkpoints:
// entries sit at different stage boundaries mid-pipeline, so no globally
// completed boundary exists to checkpoint.
func (p *Plan) ForwardPipelined(fields []*Field) error {
	if err := p.pipelinedConfig(); err != nil {
		return err
	}
	return p.executeFrom(fields, fft.Forward, 0, false, true)
}

// InversePipelined is the inverse-direction pipelined batch.
func (p *Plan) InversePipelined(fields []*Field) error {
	if err := p.pipelinedConfig(); err != nil {
		return err
	}
	return p.executeFrom(fields, fft.Inverse, 0, false, true)
}

// pipelinedConfig rejects plans the per-entry mode cannot run.
func (p *Plan) pipelinedConfig() error {
	if p.opts.Backend != BackendAlltoallv {
		return fmt.Errorf("core: %w: pipelined execution requires the alltoallv backend, have %v", ErrBadConfig, p.opts.Backend)
	}
	if p.opts.Checkpoints != nil {
		return fmt.Errorf("core: %w: pipelined execution takes no phase checkpoints", ErrBadConfig)
	}
	return nil
}

// flight is one batch entry's reshape in the per-entry mode: packed and
// posted at its reshape stage, landed just before the entry's next local
// FFT. It is a single chunk on the phase's resolved schedule.
type flight struct {
	x   transfer[complex128]
	req *mpisim.CollRequest // nil when this rank is outside the group
}

// post packs one field and posts its exchange.
func (rs *reshapePlan) post(ctx execCtx, f *Field, recycle bool) flight {
	if !f.Box.Equal(rs.from) {
		panic(fmt.Sprintf("core: reshape %s: field box %v != expected %v", rs.label, f.Box, rs.from))
	}
	fl := flight{x: newTransfer(rs, ctx, [][]complex128{f.Data}, f.Phantom(), recycle)}
	fl.x.chunks = 1
	if rs.group != nil {
		ctx.Check()
		fl.req = rs.group.IalltoallvWith(fl.x.pack(0), fl.x.algo)
	}
	return fl
}

// land waits for the entry's exchange and moves the field to the new box.
func (p *Plan) land(fl *flight, f *Field) {
	rs := fl.x.rs
	p.curPhase = rs.label
	var out [][]complex128
	if fl.req == nil {
		out = fl.x.idle()
	} else {
		fl.x.unpack(0, rs.group.WaitColl(fl.req))
		out = fl.x.out
	}
	f.Box = rs.to
	if out != nil {
		f.Data = out[0]
	}
}
