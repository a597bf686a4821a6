package core

import (
	"errors"
	"sync"
	"testing"

	"repro/internal/faults"
	"repro/internal/fft"
	"repro/internal/machine"
	"repro/internal/mpisim"
	"repro/internal/tensor"
)

func TestPipelinedMatchesSerial(t *testing.T) {
	global := [3]int{8, 8, 8}
	size := 6
	const nb = 3
	refs := make([][]complex128, nb)
	wants := make([][]complex128, nb)
	for b := 0; b < nb; b++ {
		refs[b] = globalSignal(global, int64(300+b))
		wants[b] = append([]complex128(nil), refs[b]...)
		fft.Transform3D(wants[b], global[0], global[1], global[2], fft.Forward)
	}
	cfg := Config{Global: global, Opts: Options{Decomp: DecompPencils, Backend: BackendAlltoallv}}
	w := mpisim.NewWorld(machine.Summit(), size, mpisim.Options{GPUAware: true})
	outDatas := make([][][]complex128, nb)
	for b := range outDatas {
		outDatas[b] = make([][]complex128, size)
	}
	outBoxes := make([]tensor.Box3, size)
	var mu sync.Mutex
	w.Run(func(c *mpisim.Comm) {
		p, err := NewPlan(c, cfg)
		if err != nil {
			panic(err)
		}
		fields := make([]*Field, nb)
		for b := 0; b < nb; b++ {
			fields[b] = &Field{Box: p.InBox(), Data: scatter(refs[b], global, p.InBox())}
		}
		if err := p.ForwardPipelined(fields); err != nil {
			panic(err)
		}
		mu.Lock()
		for b := 0; b < nb; b++ {
			outDatas[b][c.Rank()] = fields[b].Data
		}
		outBoxes[c.Rank()] = fields[0].Box
		mu.Unlock()
	})
	for b := 0; b < nb; b++ {
		got := gather(global, outBoxes, outDatas[b])
		if diff := maxAbsDiff(got, wants[b]); diff > tol*float64(len(got)) {
			t.Errorf("pipelined batch entry %d differs from serial by %g", b, diff)
		}
	}
}

func TestPipelinedRoundTrip(t *testing.T) {
	global := [3]int{8, 8, 8}
	size := 4
	w := mpisim.NewWorld(machine.Summit(), size, mpisim.Options{GPUAware: true})
	ok := true
	w.Run(func(c *mpisim.Comm) {
		p, err := NewPlan(c, Config{Global: global, Opts: Options{Decomp: DecompPencils, Backend: BackendAlltoallv}})
		if err != nil {
			panic(err)
		}
		f := NewField(p.InBox())
		f.FillRandom(int64(c.Rank() + 7))
		orig := append([]complex128(nil), f.Data...)
		if err := p.ForwardPipelined([]*Field{f}); err != nil {
			panic(err)
		}
		if err := p.InversePipelined([]*Field{f}); err != nil {
			panic(err)
		}
		for i := range orig {
			if d := f.Data[i] - orig[i]; real(d)*real(d)+imag(d)*imag(d) > 1e-18*float64(len(orig)) {
				ok = false
				return
			}
		}
	})
	if !ok {
		t.Error("pipelined round trip failed")
	}
}

func TestPipelinedRequiresAlltoallv(t *testing.T) {
	w := mpisim.NewWorld(machine.Summit(), 2, mpisim.Options{})
	w.Run(func(c *mpisim.Comm) {
		p, err := NewPlan(c, Config{Global: [3]int{4, 4, 4}, Opts: Options{Decomp: DecompPencils, Backend: BackendP2P}})
		if err != nil {
			panic(err)
		}
		if err := p.ForwardPipelined([]*Field{NewPhantom(p.InBox())}); !errors.Is(err, ErrBadConfig) {
			t.Errorf("P2P backend: err = %v, want ErrBadConfig", err)
		}
	})
}

// TestPipelinedOverlapsCompute: for a batch where compute is non-trivial,
// the pipelined mode must beat fully sequential per-entry execution.
func TestPipelinedOverlapsCompute(t *testing.T) {
	global := [3]int{64, 64, 64}
	size := 6
	const nb = 8
	run := func(pipelined bool) float64 {
		w := mpisim.NewWorld(machine.Summit(), size, mpisim.Options{GPUAware: true})
		res := w.Run(func(c *mpisim.Comm) {
			p, err := NewPlan(c, Config{Global: global, Opts: Options{Decomp: DecompPencils, Backend: BackendAlltoallv}})
			if err != nil {
				panic(err)
			}
			if pipelined {
				fields := make([]*Field, nb)
				for i := range fields {
					fields[i] = NewPhantom(p.InBox())
				}
				if err := p.ForwardPipelined(fields); err != nil {
					panic(err)
				}
				return
			}
			for i := 0; i < nb; i++ {
				f := NewPhantom(p.InBox())
				if err := p.Forward(f); err != nil {
					panic(err)
				}
			}
		})
		return res.MaxClock
	}
	pip, seq := run(true), run(false)
	if pip >= seq {
		t.Errorf("pipelined %g should beat sequential %g", pip, seq)
	}
}

// TestPipelinedKillFailsEveryRank: the pipelined entry points keep the
// execution contract of Forward — a rank killed mid-batch surfaces as an
// error wrapping ErrRankFailed returned on every rank, not only in
// Result.Err. The kill lands on the victim's third exchange post, between
// batch entries.
func TestPipelinedKillFailsEveryRank(t *testing.T) {
	const size = 4
	for _, inverse := range []bool{false, true} {
		plan := &faults.Plan{Timeout: 1, Events: []faults.Event{{Kind: faults.Kill, Rank: 1, Op: 2}}}
		w := mpisim.NewWorld(machine.Summit(), size, mpisim.Options{GPUAware: true, Faults: plan})
		errs := make([]error, size)
		res := w.Run(func(c *mpisim.Comm) {
			p, err := NewPlan(c, Config{Global: [3]int{8, 8, 8}, Opts: Options{Decomp: DecompPencils}})
			if err != nil {
				errs[c.Rank()] = err
				return
			}
			fields := []*Field{NewField(p.InBox()), NewField(p.InBox()), NewField(p.InBox())}
			if inverse {
				errs[c.Rank()] = p.InversePipelined(fields)
			} else {
				errs[c.Rank()] = p.ForwardPipelined(fields)
			}
		})
		if !errors.Is(res.Err, mpisim.ErrRankFailed) {
			t.Fatalf("inverse=%v: Result.Err = %v, want ErrRankFailed", inverse, res.Err)
		}
		for r, err := range errs {
			if !errors.Is(err, mpisim.ErrRankFailed) {
				t.Errorf("inverse=%v rank %d: err = %v, want ErrRankFailed", inverse, r, err)
			}
		}
	}
}

// TestPipelinedRejectsCheckpoints: entries of a pipelined batch sit at
// different stage boundaries, so a plan armed with phase checkpoints fails
// the call up front with ErrBadConfig instead of silently taking none.
func TestPipelinedRejectsCheckpoints(t *testing.T) {
	w := mpisim.NewWorld(machine.Summit(), 2, mpisim.Options{GPUAware: true})
	w.Run(func(c *mpisim.Comm) {
		p, err := NewPlan(c, Config{Global: [3]int{4, 4, 4}, Opts: Options{Decomp: DecompPencils, Checkpoints: NewCheckpointStore()}})
		if err != nil {
			panic(err)
		}
		f := NewPhantom(p.InBox())
		if err := p.ForwardPipelined([]*Field{f}); !errors.Is(err, ErrBadConfig) {
			t.Errorf("ForwardPipelined with checkpoints: err = %v, want ErrBadConfig", err)
		}
		if err := p.InversePipelined([]*Field{f}); !errors.Is(err, ErrBadConfig) {
			t.Errorf("InversePipelined with checkpoints: err = %v, want ErrBadConfig", err)
		}
		if !f.Box.Equal(p.InBox()) {
			t.Errorf("rejected call moved the field to %v", f.Box)
		}
	})
}
