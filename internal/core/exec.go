package core

import (
	"context"
	"fmt"

	"repro/internal/fft"
	"repro/internal/tensor"
	"repro/internal/trace"
)

// Forward computes the forward transform of one field (in place: the field's
// box and data become the output distribution). The single-field batch rides
// in plan-held scratch, so steady-state execution allocates nothing.
func (p *Plan) Forward(f *Field) error {
	p.one[0] = f
	return p.execute(p.one[:], fft.Forward)
}

// Inverse computes the inverse transform (scaled by 1/N, so
// Inverse(Forward(x)) == x).
func (p *Plan) Inverse(f *Field) error {
	p.one[0] = f
	return p.execute(p.one[:], fft.Inverse)
}

// ForwardCtx is Forward with a cancellation context: the context is checked
// at every stage and pipeline-chunk boundary, and an expired context fails
// the execution with an error wrapping ctx.Err(). Cancellation is
// collective — a distributed transform cannot complete once one rank stops
// participating — so the rank observing the expired context aborts the
// world and every other rank's execution returns the same error. Callers
// are expected to pass equivalent contexts on all ranks, the same contract
// as every other collective argument.
func (p *Plan) ForwardCtx(ctx context.Context, f *Field) error {
	p.ctx = ctx
	defer func() { p.ctx = nil }()
	return p.Forward(f)
}

// InverseCtx is Inverse with a cancellation context; see ForwardCtx.
func (p *Plan) InverseCtx(ctx context.Context, f *Field) error {
	p.ctx = ctx
	defer func() { p.ctx = nil }()
	return p.Inverse(f)
}

// ForwardBatchCtx is ForwardBatch with a cancellation context; see ForwardCtx.
func (p *Plan) ForwardBatchCtx(ctx context.Context, fs []*Field) error {
	p.ctx = ctx
	defer func() { p.ctx = nil }()
	return p.ForwardBatch(fs)
}

// InverseBatchCtx is InverseBatch with a cancellation context; see ForwardCtx.
func (p *Plan) InverseBatchCtx(ctx context.Context, fs []*Field) error {
	p.ctx = ctx
	defer func() { p.ctx = nil }()
	return p.InverseBatch(fs)
}

// checkCtx fails the world when the plan's attached context has expired.
// Runs at stage and chunk boundaries on the execution path; the resulting
// error satisfies errors.Is against ctx.Err() (context.Canceled or
// context.DeadlineExceeded).
func (p *Plan) checkCtx() {
	if p.ctx == nil {
		return
	}
	select {
	case <-p.ctx.Done():
		p.comm.Fail(fmt.Errorf("core: rank %d: execution canceled: %w",
			p.comm.WorldRank(p.comm.Rank()), p.ctx.Err()))
	default:
	}
}

// ForwardBatch transforms a batch of fields through one fused plan
// execution: exchange messages carry all batch payloads (amortizing latency
// and per-message overheads) and the local FFTs of later batch entries
// overlap the network exchanges — the batched-transform feature of
// Algorithm 1 evaluated in Fig. 13.
func (p *Plan) ForwardBatch(fs []*Field) error { return p.execute(fs, fft.Forward) }

// InverseBatch is the batched inverse transform.
func (p *Plan) InverseBatch(fs []*Field) error { return p.execute(fs, fft.Inverse) }

// ExecInfo describes one execution on this rank: how many fields the batch
// fused and the virtual-time interval it spanned. The serving layer uses it
// to attribute per-batch virtual cost without instrumenting the pipeline.
type ExecInfo struct {
	// Batch is the number of fields the execution carried.
	Batch int
	// Start and End are the rank's virtual clock (seconds) around the
	// execution; End-Start is the batch's virtual cost on this rank.
	Start, End float64
}

// LastExec returns information about the most recent (possibly failed)
// execution on this rank. Like execution itself, it is rank-local: call it
// from the goroutine that ran the plan.
func (p *Plan) LastExec() ExecInfo { return p.lastExec }

func (p *Plan) execute(fields []*Field, dir fft.Direction) error {
	return p.executeFrom(fields, dir, 0, false, false)
}

// executeFrom runs the pipeline from stage index from (0 = the full
// transform): the fields must carry the data distribution of that stage
// boundary (p.dists[from]). ResumeBatch uses it to re-enter a shrunken
// world's pipeline at the last globally completed boundary; recycleFirst
// marks the fields' arrays as pool-drawn so the first reshape recycles them.
// The inverse of an R2C plan walks its inverse stage list from the output
// distribution back to the input one.
//
// perEntry selects the pipelined mode (ForwardPipelined): instead of one
// fused exchange per reshape, every entry's exchange is posted on its own,
// and each entry lands and transforms while later entries' messages fly.
func (p *Plan) executeFrom(fields []*Field, dir fft.Direction, from int, recycleFirst, perEntry bool) (err error) {
	if p.closed {
		return fmt.Errorf("core: %w", ErrPlanClosed)
	}
	if len(fields) == 0 {
		return fmt.Errorf("core: empty batch")
	}
	// Injected faults and exchange timeouts unwind as panics from deep inside
	// the reshape machinery; surface them as errors with (rank, phase) context
	// instead of crashing the rank goroutine.
	p.curPhase = ""
	defer p.recoverFault(&err)
	// Validation failures leave End == Start: nothing executed, no cost.
	p.lastExec = ExecInfo{Batch: len(fields), Start: p.comm.Clock()}
	p.lastExec.End = p.lastExec.Start
	phantom := fields[0].Phantom()
	stages, startBox, endBox := p.stages, p.dists[from][p.comm.Rank()], p.outBox
	if dir == fft.Inverse && p.inv != nil {
		stages, startBox, endBox = p.inv, p.outBox, p.inBox
	}
	for _, f := range fields {
		if err := f.validate(startBox); err != nil {
			return err
		}
		if f.Phantom() != phantom {
			return fmt.Errorf("core: batch mixes phantom and real fields")
		}
	}
	ck := p.opts.Checkpoints
	if ck != nil {
		// Open this rank's checkpoint trail with the boundary being entered:
		// the caller's input, or (on resume) the boundary restored, so a
		// second shrink can cascade from there.
		p.beginCheckpoints(ck, dir, len(fields), phantom)
		label := inputBoundary
		if from > 0 {
			label = stages[from-1].label
		}
		p.saveBoundary(ck, label, fields, phantom)
	}

	// pending is local FFT work of batch entries beyond the first whose
	// execution overlaps the next exchange: the pipeline charges the first
	// entry's compute up front (its results must be packed before anything
	// can be sent) and hides the rest behind communication.
	pending := 0.0
	// The first reshape packs from caller-owned arrays; every later one packs
	// from arrays the previous reshape drew from the staging pool, which are
	// recycled once packed.
	recycle := recycleFirst
	var check func()
	if p.ctx != nil {
		check = p.checkCtx
	}
	ctx := execCtx{dev: p.dev, opts: p.opts, check: check}
	// flights are the per-entry mode's posted exchanges, landed entry by
	// entry at the next compute stage (or before the next reshape).
	var flights []flight
	for si := from; si < len(stages); si++ {
		st := stages[si]
		p.curPhase = st.label
		p.checkCtx()
		switch {
		case st.kind == stageReshape && perEntry:
			for i := range flights {
				p.land(&flights[i], fields[i])
			}
			flights = flights[:0]
			for _, f := range fields {
				flights = append(flights, st.rs.post(ctx, f, recycle))
			}
			recycle = true
		case st.kind == stageReshape:
			t0 := p.comm.Clock()
			st.rs.run(ctx, fields, recycle)
			recycle = true
			comm := p.comm.Clock() - t0
			if pending > comm {
				p.chargeOverlap(pending - comm)
			}
			pending = 0
		case st.kind == stageR2C || st.kind == stageC2R:
			// The transform replaces the arrays with pool-drawn ones.
			per := p.realStage(st, fields, recycle)
			recycle = true
			pending += per * float64(len(fields)-1)
		case perEntry:
			for i := range fields {
				if len(flights) > 0 {
					p.land(&flights[i], fields[i])
					p.curPhase = st.label
				}
				p.fftStage(st, fields[i:i+1], dir)
			}
			flights = flights[:0]
		default:
			per := p.fftStage(st, fields, dir)
			pending += per * float64(len(fields)-1)
		}
		if ck != nil {
			p.saveBoundary(ck, st.label, fields, phantom)
		}
	}
	for i := range flights {
		p.land(&flights[i], fields[i])
	}
	if pending > 0 {
		p.chargeOverlap(pending)
	}
	p.lastExec.End = p.comm.Clock()
	for _, f := range fields {
		if err := f.validate(endBox); err != nil {
			return fmt.Errorf("core: after execution: %w", err)
		}
	}
	return nil
}

// chargeOverlap accounts batched compute that did not fit under the
// exchanges.
func (p *Plan) chargeOverlap(dt float64) {
	start := p.comm.Clock()
	p.comm.Advance(dt)
	p.comm.Tracer().Record(trace.Event{
		Rank: p.comm.WorldRank(p.comm.Rank()), Name: "batched_fft",
		Start: start, End: start + dt,
	})
}

// fftStage computes the local transforms of every batch entry (numerically)
// and charges the virtual cost of ONE entry, returning that per-entry cost
// so execute can pipeline the remainder.
func (p *Plan) fftStage(st stage, fields []*Field, dir fft.Direction) float64 {
	box := st.myBox
	if box.Empty() {
		return 0
	}
	if p.comm.Integrity().Invariants {
		return p.fftStageABFT(st, fields, dir)
	}
	s := box.Sizes()
	g := p.dev.Model()

	if st.kind == stageFFT2D {
		// Slab stage: batched 2-D transforms over axes (1, 2), contiguous.
		if !fields[0].Phantom() {
			for _, f := range fields {
				for i0 := 0; i0 < s[0]; i0++ {
					plane := f.Data[i0*s[1]*s[2] : (i0+1)*s[1]*s[2]]
					fft.Transform2D(plane, s[1], s[2], dir)
				}
			}
		}
		p.dev.FFT2D(s[1], s[2], s[0], false)
		return g.FFT2DCost(s[1], s[2], s[0], false)
	}

	axis := st.axis
	n := s[axis]
	if n != p.global[axis] {
		panic(fmt.Sprintf("core: fft stage axis %d spans %d of %d", axis, n, p.global[axis]))
	}
	batch := box.Volume() / n
	// Axis 2 is contiguous in the local layout; axes 0 and 1 are strided.
	// In the "contiguous/transposed" mode the data is reordered so the kernel
	// runs contiguous (charged as transposed pack/unpack); otherwise the
	// strided kernel pays the Fig. 10 penalty.
	strided := axis != 2 && !p.opts.Contiguous

	if !fields[0].Phantom() {
		for _, f := range fields {
			localFFT1D(st.fplan, f.Data, box, axis, p.opts.Contiguous, dir)
		}
	}
	p.dev.FFT1D(n, batch, strided)
	return g.FFT1DCost(n, batch, strided)
}

// realStage runs the local r2c (or c2r) transforms of every batch entry along
// axis 2, moving the fields between their real and half-spectrum z-pencils,
// and charges ONE entry's kernel, returning that per-entry cost like
// fftStage. recycle marks the input arrays as plan-owned: they return to the
// staging pool once transformed.
func (p *Plan) realStage(st stage, fields []*Field, recycle bool) float64 {
	n := p.global[2]
	h := n/2 + 1
	rows := st.myBox.Size(0) * st.myBox.Size(1)
	p.dev.FFTR2C(n, rows)
	for _, f := range fields {
		if st.kind == stageR2C {
			f.Box = st.myBox
			if f.real != nil {
				// Pool-drawn and fully overwritten: rows*h covers the box.
				out := getBuf[complex128](st.myBox.Volume())
				if err := st.rplan.ForwardBatch(f.real, 1, n, out, 1, h, rows); err != nil {
					panic(err)
				}
				if recycle {
					putBuf(f.real)
				}
				f.real, f.Data = nil, out
			}
		} else {
			f.Box = st.realBox
			if f.Data != nil {
				out := getBuf[float64](st.realBox.Volume())
				if err := st.rplan.InverseBatch(f.Data, 1, h, out, 1, n, rows); err != nil {
					panic(err)
				}
				if recycle {
					putBuf(f.Data)
				}
				f.Data, f.real = nil, out
			}
		}
	}
	return p.dev.Model().FFTR2CCost(n, rows)
}

// localFFT1D computes the local 1-D transforms of one field along axis. Axis 2
// is contiguous in the local row-major layout and runs as one batched call;
// axis 1 runs as a single nested-layout call (planes × rows, FFTW guru
// howmany_dims style) so the blocked tile engine sees the whole middle-axis
// batch at once; axis 0 is a plain strided batch. With Contiguous set, the
// strided axes instead realize the paper's "transposed/contiguous" local-FFT
// mode: a cache-blocked reorder gives the FFT axis unit stride, the transform
// runs contiguous, and the data is reordered back — the virtual cost of those
// transposes is already charged by the reshape's transposed pack/unpack.
func localFFT1D(plan *fft.Plan, data []complex128, box tensor.Box3, axis int, contiguous bool, dir fft.Direction) {
	s := box.Sizes()
	if contiguous && axis != 2 {
		perm := [3]int{0, 2, 1}
		if axis == 0 {
			perm = [3]int{1, 2, 0}
		}
		n := s[axis]
		buf := getBuf[complex128](len(data))
		tensor.Reorder(data, box, perm, buf)
		plan.TransformBatch(buf, 1, n, len(data)/n, dir)
		tensor.ReorderBack(buf, box, perm, data)
		putBuf(buf)
		return
	}
	switch axis {
	case 2:
		plan.TransformBatch(data, 1, s[2], s[0]*s[1], dir)
	case 1:
		plan.TransformNested(data, s[2], s[1]*s[2], s[0], 1, s[2], dir)
	case 0:
		plan.TransformBatch(data, s[1]*s[2], 1, s[1]*s[2], dir)
	}
}
