package core

import (
	"fmt"

	"repro/internal/fft"
	"repro/internal/gpu"
	"repro/internal/model"
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

// RealPlan is a collectively created distributed R2C/C2R plan. The pipeline
// reshapes the real input to z-pencils (at 8 bytes/element), runs the local
// real-to-complex transform along axis 2, and continues with the complex
// pencil pipeline on the half grid.
type RealPlan struct {
	comm *mpisim.Comm
	dev  *gpu.Device
	opts Options

	global [3]int // real grid
	half   [3]int // Hermitian half grid

	inBox  tensor.Box3 // real grid
	outBox tensor.Box3 // half grid

	inReshape *reshapePlan // real bricks → real z-pencils (reversed for C2R output)

	zBoxReal tensor.Box3 // my real z-pencil box
	zBoxHalf tensor.Box3 // my half-grid z-pencil box

	// Complex stages from half-grid z-pencils to OutBoxes (forward order),
	// plus the precomputed reversed pipeline used by InverseBatch — built once
	// here so repeated inverse transforms construct nothing.
	stages     []stage
	revStages  []stage
	outReshape *reshapePlan // reversed inReshape: real z-pencils → InBoxes

	// rplan is the cached 1-D real-to-complex kernel plan along axis 2.
	rplan *fft.RealPlan

	p, q   int
	closed bool
	// curPhase is the stage label currently executing (fault-error context).
	curPhase string
}

// NewRealPlan collectively creates an R2C plan; all ranks pass identical
// RealConfig.
func NewRealPlan(c *mpisim.Comm, cfg RealConfig) (*RealPlan, error) {
	size := c.Size()
	for d := 0; d < 3; d++ {
		if cfg.Global[d] < 1 {
			return nil, fmt.Errorf("core: %w: invalid global grid %v", ErrBadConfig, cfg.Global)
		}
	}
	if cfg.Global[2]%2 != 0 {
		return nil, fmt.Errorf("core: %w: R2C needs an even N2, got %d", ErrBadConfig, cfg.Global[2])
	}
	half := [3]int{cfg.Global[0], cfg.Global[1], cfg.Global[2]/2 + 1}

	inBoxes := cfg.InBoxes
	if inBoxes == nil {
		inBoxes = DefaultBricks(size, cfg.Global)
	}
	outBoxes := cfg.OutBoxes
	if outBoxes == nil {
		outBoxes = DefaultBricks(size, half)
	}
	if len(inBoxes) != size || len(outBoxes) != size {
		return nil, fmt.Errorf("core: %w: got %d in / %d out boxes for %d ranks", ErrMismatchedBoxes, len(inBoxes), len(outBoxes), size)
	}
	if err := validateBoxes(cfg.Global, inBoxes); err != nil {
		return nil, fmt.Errorf("core: %w: input boxes: %w", ErrMismatchedBoxes, err)
	}
	if err := validateBoxes(half, outBoxes); err != nil {
		return nil, fmt.Errorf("core: %w: output boxes: %w", ErrMismatchedBoxes, err)
	}

	p := &RealPlan{
		comm:   c,
		dev:    gpu.New(c),
		opts:   cfg.Opts,
		global: cfg.Global,
		half:   half,
		inBox:  inBoxes[c.Rank()],
		outBox: outBoxes[c.Rank()],
	}
	p.p, p.q = cfg.Opts.PQ[0], cfg.Opts.PQ[1]
	if p.p <= 0 || p.q <= 0 {
		p.p, p.q = tensor.Square2D(size)
	} else if p.p*p.q != size {
		return nil, fmt.Errorf("core: %w: pencil grid %dx%d does not match %d ranks", ErrBadConfig, p.p, p.q, size)
	}
	rp, err := fft.NewRealPlan(cfg.Global[2])
	if err != nil {
		return nil, fmt.Errorf("core: %w: %w", ErrBadConfig, err)
	}
	p.rplan = rp

	// Real z-pencils and their half-grid shadows share the P×Q grid, so the
	// r2c stage is purely local.
	zReal := pencilBoxes(cfg.Global, 2, p.p, p.q)
	zHalf := pencilBoxes(half, 2, p.p, p.q)
	p.zBoxReal = zReal[c.Rank()]
	p.zBoxHalf = zHalf[c.Rank()]

	// Reshape tags must not collide with the complex-stage tags below;
	// buildStagesReal allocates from 900 upward.
	p.inReshape = buildReshape(c, inBoxes, zReal, "r2c-input", 901)

	// Complex pipeline on the half grid: z-pencils → y FFT → x FFT → out.
	cur := zHalf
	tag := 910
	var revs []*reshapePlan // reversed twin of each complex reshape, forward order
	addReshape := func(target []tensor.Box3, label string, interior bool) {
		tag++
		if boxesEqual(cur, target) {
			return
		}
		rs := buildReshape(c, cur, target, label, tag)
		rs.interior = interior
		p.stages = append(p.stages, stage{kind: stageReshape, label: "reshape " + label, rs: rs})
		revs = append(revs, reverseReshape(c, rs, cur, target))
		cur = target
	}
	addFFT := func(axis int) {
		p.stages = append(p.stages, stage{
			kind: stageFFT1D, label: fmt.Sprintf("fft axis %d", axis),
			axis: axis, myBox: cur[c.Rank()],
			fplan: fft.NewPlan(half[axis]),
		})
	}
	// The two pencil reshapes sit strictly between compute stages (the local
	// r2c/c2r counts as one on the input side), so they are wire-compressible
	// in both directions; the output reshape moves caller data.
	addReshape(pencilBoxes(half, 1, p.p, p.q), "r2c-pencil-y", true)
	addFFT(1)
	addReshape(pencilBoxes(half, 0, p.p, p.q), "r2c-pencil-x", true)
	addFFT(0)
	addReshape(outBoxes, "r2c-output", false)

	// Precompute the reversed pipeline for InverseBatch.
	p.revStages = make([]stage, 0, len(p.stages))
	for i := len(p.stages) - 1; i >= 0; i-- {
		st := p.stages[i]
		if st.kind == stageReshape {
			st = stage{kind: stageReshape, label: st.label + "-rev", rs: revs[len(revs)-1]}
			revs = revs[:len(revs)-1]
		}
		p.revStages = append(p.revStages, st)
	}
	p.outReshape = reverseReshape(c, p.inReshape, inBoxes, zReal)
	return p, nil
}

// Close marks the plan unusable; subsequent executions return ErrPlanClosed.
// Close is idempotent and local to this rank.
func (p *RealPlan) Close() error {
	p.closed = true
	return nil
}

// InBox returns this rank's real-grid input box; OutBox the half-grid output
// box.
func (p *RealPlan) InBox() tensor.Box3  { return p.inBox }
func (p *RealPlan) OutBox() tensor.Box3 { return p.outBox }

// HalfGlobal returns the Hermitian half-grid extents (N0, N1, N2/2+1).
func (p *RealPlan) HalfGlobal() [3]int { return p.half }

// ctx returns the reshape execution context.
func (p *RealPlan) ctx() execCtx { return execCtx{dev: p.dev, opts: p.opts} }

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
// like Plan.ForwardBatch (the Fig. 13 batching feature, here for R2C).
func (p *RealPlan) ForwardBatch(rfs []*RealField) (_ []*Field, err error) {
	p.curPhase = ""
	defer p.recoverFault(&err)
	if p.closed {
		return nil, fmt.Errorf("core: %w", ErrPlanClosed)
	}
	if len(rfs) == 0 {
		return nil, fmt.Errorf("core: empty batch")
	}
	phantom := rfs[0].Phantom()
	for _, rf := range rfs {
		if !rf.Box.Equal(p.inBox) {
			return nil, fmt.Errorf("core: real field box %v != plan input box %v", rf.Box, p.inBox)
		}
		if !rf.Phantom() && len(rf.Data) != rf.Box.Volume() {
			return nil, fmt.Errorf("core: real field length %d != box volume %d", len(rf.Data), rf.Box.Volume())
		}
		if rf.Phantom() != phantom {
			return nil, fmt.Errorf("core: batch mixes phantom and real fields")
		}
	}

	// Move the real data to z-pencils (half the bytes of a complex reshape).
	// The caller still owns the brick arrays, so they are not recycled.
	p.curPhase = "reshape r2c-input"
	p.inReshape.runReal(p.ctx(), rfs, false)

	// Local r2c along axis 2, then the complex pipeline with fused
	// exchanges. r2cLocal draws the half-spectrum arrays from the staging
	// pool, so every complex reshape recycles the arrays it replaces.
	fields := make([]*Field, len(rfs))
	for i, rf := range rfs {
		fields[i] = p.r2cLocal(rf)
	}
	dir := fft.Forward
	for _, st := range p.stages {
		p.curPhase = st.label
		switch st.kind {
		case stageReshape:
			st.rs.run(p.ctx(), fields, true)
		case stageFFT1D:
			for _, f := range fields {
				p.fft1D(st, f, dir)
			}
		}
	}
	for _, f := range fields {
		if !f.Box.Equal(p.outBox) {
			return nil, fmt.Errorf("core: R2C ended on box %v, want %v", f.Box, p.outBox)
		}
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

// InverseBatch is the batched complex-to-real transform.
func (p *RealPlan) InverseBatch(fields []*Field) (_ []*RealField, err error) {
	p.curPhase = ""
	defer p.recoverFault(&err)
	if p.closed {
		return nil, fmt.Errorf("core: %w", ErrPlanClosed)
	}
	if len(fields) == 0 {
		return nil, fmt.Errorf("core: empty batch")
	}
	for _, f := range fields {
		if !f.Box.Equal(p.outBox) {
			return nil, fmt.Errorf("core: field box %v != plan output box %v", f.Box, p.outBox)
		}
	}
	dir := fft.Inverse
	// Walk the precomputed reversed pipeline. The caller owns the input
	// arrays; anything a reshape produced mid-pipeline is pool-drawn and
	// recycled when the next reshape replaces it.
	recycle := false
	for _, st := range p.revStages {
		p.curPhase = st.label
		switch st.kind {
		case stageReshape:
			st.rs.run(p.ctx(), fields, recycle)
			recycle = true
		case stageFFT1D:
			for _, f := range fields {
				p.fft1D(st, f, dir)
			}
		}
	}
	rfs := make([]*RealField, len(fields))
	for i, f := range fields {
		if !f.Box.Equal(p.zBoxHalf) {
			return nil, fmt.Errorf("core: C2R reached box %v, want z-pencils %v", f.Box, p.zBoxHalf)
		}
		rfs[i] = p.c2rLocal(f)
	}
	p.curPhase = "reshape r2c-input-rev"
	p.outReshape.runReal(p.ctx(), rfs, true)
	return rfs, nil
}

// reverseReshape returns the reshape with source and destination swapped;
// rs was built by buildReshape(c, from, to, ...). Group structure and member
// lists are identical; the box roles and peer lists flip, and the exchange
// statistics are those of the swapped exchange to → from, so the reversed
// phase resolves its schedule and chunking exactly as a reshape built on the
// swapped boxes would. The interior flag carries over: a reshape between
// compute stages stays between compute stages in the reversed pipeline.
func reverseReshape(c *mpisim.Comm, rs *reshapePlan, from, to []tensor.Box3) *reshapePlan {
	rev := &reshapePlan{
		label: rs.label + "-rev", tag: rs.tag + 50,
		from: rs.to, to: rs.from, interior: rs.interior,
		group: rs.group, members: rs.members, myGroupRank: rs.myGroupRank,
		sends: rs.recvs, recvs: rs.sends,
		sendPeers: rs.recvPeers, recvPeers: rs.sendPeers,
	}
	if rs.group != nil {
		rev.stats = sharedExchStats(c, to, from, rs.members)
	}
	return rev
}

// r2cLocal converts a real z-pencil field to its complex half-spectrum.
func (p *RealPlan) r2cLocal(rf *RealField) *Field {
	box := p.zBoxReal
	out := &Field{Box: p.zBoxHalf}
	n2 := p.global[2]
	h := p.half[2]
	rows := box.Size(0) * box.Size(1)
	p.dev.FFTR2C(n2, rows)
	if rf.Phantom() {
		return out
	}
	// Pool-drawn and fully overwritten: rows*h covers the volume exactly. The
	// whole pencil runs as one advanced-layout D2Z batch (zero-copy, parallel
	// fan-out inside the fft package).
	out.Data = getBuf[complex128](p.zBoxHalf.Volume())
	if err := p.rplan.ForwardBatch(rf.Data, 1, n2, out.Data, 1, h, rows); err != nil {
		panic(err)
	}
	return out
}

// c2rLocal converts a half-spectrum z-pencil field back to real values.
func (p *RealPlan) c2rLocal(f *Field) *RealField {
	n2 := p.global[2]
	h := p.half[2]
	rows := p.zBoxHalf.Size(0) * p.zBoxHalf.Size(1)
	p.dev.FFTR2C(n2, rows)
	rf := &RealField{Box: p.zBoxReal}
	if f.Phantom() {
		return rf
	}
	rf.Data = getBuf[float64](p.zBoxReal.Volume())
	if err := p.rplan.InverseBatch(f.Data, 1, h, rf.Data, 1, n2, rows); err != nil {
		panic(err)
	}
	return rf
}

// fft1D runs one complex 1-D stage of the half-grid pipeline.
func (p *RealPlan) fft1D(st stage, f *Field, dir fft.Direction) {
	box := st.myBox
	if box.Empty() {
		return
	}
	s := box.Sizes()
	n := s[st.axis]
	batch := box.Volume() / n
	strided := st.axis != 2 && !p.opts.Contiguous
	if !f.Phantom() {
		localFFT1D(st.fplan, f.Data, box, st.axis, p.opts.Contiguous, dir)
	}
	p.dev.FFT1D(n, batch, strided)
}

// PredictComm evaluates the bandwidth model for this plan's geometry — the
// complex phases move half-grid volumes, plus the half-byte real reshape.
func (p *RealPlan) PredictComm() float64 {
	m := p.comm.Model()
	params := model.Params{Latency: m.InterLatency, Bandwidth: m.NodeInjectionBW}
	n := p.half[0] * p.half[1] * p.half[2]
	return model.PencilTime(n, p.p, p.q, params)
}
