package core

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"math/cmplx"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/fft"
	"repro/internal/machine"
	"repro/internal/mpisim"
	"repro/internal/tensor"
	"repro/internal/trace"
)

// serialR2C computes the reference half-spectrum of a real global array by a
// full complex transform truncated to k2 <= N2/2.
func serialR2C(global [3]int, data []float64) []complex128 {
	cx := make([]complex128, len(data))
	for i, v := range data {
		cx[i] = complex(v, 0)
	}
	fft.Transform3D(cx, global[0], global[1], global[2], fft.Forward)
	h := global[2]/2 + 1
	out := make([]complex128, global[0]*global[1]*h)
	for i0 := 0; i0 < global[0]; i0++ {
		for i1 := 0; i1 < global[1]; i1++ {
			for i2 := 0; i2 < h; i2++ {
				out[(i0*global[1]+i1)*h+i2] = cx[(i0*global[1]+i1)*global[2]+i2]
			}
		}
	}
	return out
}

func randomRealGlobal(global [3]int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	x := make([]float64, global[0]*global[1]*global[2])
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	return x
}

// runRealDistributed runs one R2C forward and gathers the half-spectrum.
func runRealDistributed(t *testing.T, size int, global [3]int, opts Options, seed int64) []complex128 {
	t.Helper()
	ref := randomRealGlobal(global, seed)
	half := [3]int{global[0], global[1], global[2]/2 + 1}
	fullReal := tensor.FullBox(global)
	w := mpisim.NewWorld(machine.Summit(), size, mpisim.Options{GPUAware: true})
	outDatas := make([][]complex128, size)
	outBoxes := make([]tensor.Box3, size)
	var mu sync.Mutex
	w.Run(func(c *mpisim.Comm) {
		p, err := NewRealPlan(c, RealConfig{Global: global, Opts: opts})
		if err != nil {
			panic(err)
		}
		local := make([]float64, p.InBox().Volume())
		tensor.Pack(ref, fullReal, p.InBox(), local)
		rf := &RealField{Box: p.InBox(), Data: local}
		f, err := p.Forward(rf)
		if err != nil {
			panic(err)
		}
		mu.Lock()
		outDatas[c.Rank()] = f.Data
		outBoxes[c.Rank()] = f.Box
		mu.Unlock()
	})
	fullHalf := tensor.FullBox(half)
	out := make([]complex128, half[0]*half[1]*half[2])
	for r, b := range outBoxes {
		if b.Volume() > 0 {
			tensor.Unpack(out, fullHalf, b, outDatas[r])
		}
	}
	return out
}

func TestRealPlanValidationErrors(t *testing.T) {
	w := mpisim.NewWorld(machine.Summit(), 2, mpisim.Options{})
	w.Run(func(c *mpisim.Comm) {
		if _, err := NewRealPlan(c, RealConfig{Global: [3]int{4, 4, 5}}); err == nil {
			t.Error("expected error for odd N2")
		}
		if _, err := NewRealPlan(c, RealConfig{Global: [3]int{0, 4, 4}}); err == nil {
			t.Error("expected error for zero extent")
		}
		if _, err := NewRealPlan(c, RealConfig{Global: [3]int{4, 4, 4}, Opts: Options{PQ: [2]int{3, 5}}}); err == nil {
			t.Error("expected error for bad PQ")
		}
		// Checkpoints would be silently skipped by the R2C pipeline's real
		// segment, so the plan refuses the store up front.
		if _, err := NewRealPlan(c, RealConfig{Global: [3]int{4, 4, 4}, Opts: Options{Checkpoints: NewCheckpointStore()}}); !errors.Is(err, ErrBadConfig) {
			t.Errorf("checkpoints: err = %v, want ErrBadConfig", err)
		}
	})
}

func TestDistributedR2CMatchesSerial(t *testing.T) {
	for _, bk := range []Backend{BackendAlltoallv, BackendP2P, BackendAlltoallw} {
		global := [3]int{8, 6, 10}
		ref := randomRealGlobal(global, 51)
		want := serialR2C(global, ref)
		got := runRealDistributed(t, 6, global, Options{Backend: bk}, 51)
		var maxDiff float64
		for i := range want {
			if d := cmplx.Abs(got[i] - want[i]); d > maxDiff {
				maxDiff = d
			}
		}
		if maxDiff > 1e-9*float64(len(want)) {
			t.Errorf("backend %v: distributed R2C differs from serial by %g", bk, maxDiff)
		}
	}
}

func TestDistributedR2CRoundTrip(t *testing.T) {
	global := [3]int{8, 8, 8}
	size := 6
	ref := randomRealGlobal(global, 52)
	fullReal := tensor.FullBox(global)
	// The second configuration shrinks the FFT grid to 3 of the 6 ranks.
	for _, opts := range []Options{{Backend: BackendAlltoallv}, {Backend: BackendAlltoallv, ShrinkThreshold: 200}} {
		w := mpisim.NewWorld(machine.Summit(), size, mpisim.Options{GPUAware: true})
		maxErr := make([]float64, size)
		w.Run(func(c *mpisim.Comm) {
			p, err := NewRealPlan(c, RealConfig{Global: global, Opts: opts})
			if err != nil {
				panic(err)
			}
			local := make([]float64, p.InBox().Volume())
			tensor.Pack(ref, fullReal, p.InBox(), local)
			orig := append([]float64(nil), local...)
			rf := &RealField{Box: p.InBox(), Data: local}
			f, err := p.Forward(rf)
			if err != nil {
				panic(err)
			}
			back, err := p.Inverse(f)
			if err != nil {
				panic(err)
			}
			if !back.Box.Equal(p.InBox()) {
				panic("inverse did not return to the input distribution")
			}
			for i := range orig {
				if d := math.Abs(back.Data[i] - orig[i]); d > maxErr[c.Rank()] {
					maxErr[c.Rank()] = d
				}
			}
		})
		for r, e := range maxErr {
			if e > 1e-9*float64(global[0]*global[1]*global[2]) {
				t.Errorf("shrink %d rank %d: C2R(R2C(x)) differs from x by %g", opts.ShrinkThreshold, r, e)
			}
		}
	}
}

// TestR2CCheaperThanC2C: the real input reshape moves half the bytes and the
// half-grid pipeline moves ~half the complex volume, so the R2C transform
// must be substantially cheaper than the complex transform of the same grid.
func TestR2CCheaperThanC2C(t *testing.T) {
	global := [3]int{64, 64, 64}
	size := 12
	r2cTime := func() float64 {
		w := mpisim.NewWorld(machine.Summit(), size, mpisim.Options{GPUAware: true})
		res := w.Run(func(c *mpisim.Comm) {
			p, err := NewRealPlan(c, RealConfig{Global: global, Opts: Options{Backend: BackendAlltoallv}})
			if err != nil {
				panic(err)
			}
			rf := NewRealPhantom(p.InBox())
			if _, err := p.Forward(rf); err != nil {
				panic(err)
			}
		})
		return res.MaxClock
	}
	c2cTime := func() float64 {
		w := mpisim.NewWorld(machine.Summit(), size, mpisim.Options{GPUAware: true})
		res := w.Run(func(c *mpisim.Comm) {
			p, err := NewPlan(c, Config{Global: global, Opts: Options{Decomp: DecompPencils, Backend: BackendAlltoallv}})
			if err != nil {
				panic(err)
			}
			f := NewPhantom(p.InBox())
			if err := p.Forward(f); err != nil {
				panic(err)
			}
		})
		return res.MaxClock
	}
	r2c, c2c := r2cTime(), c2cTime()
	if r2c >= c2c {
		t.Errorf("R2C (%g) should be cheaper than C2C (%g)", r2c, c2c)
	}
	if ratio := r2c / c2c; ratio > 0.85 {
		t.Errorf("R2C/C2C ratio %.2f too high — the half-volume saving is missing", ratio)
	}
}

// TestR2CPhantomTimingMatchesReal mirrors the C2C property for R2C plans.
func TestR2CPhantomTimingMatchesReal(t *testing.T) {
	global := [3]int{8, 8, 8}
	size := 4
	run := func(phantom bool) float64 {
		w := mpisim.NewWorld(machine.Summit(), size, mpisim.Options{GPUAware: true})
		res := w.Run(func(c *mpisim.Comm) {
			p, err := NewRealPlan(c, RealConfig{Global: global, Opts: Options{Backend: BackendAlltoallv}})
			if err != nil {
				panic(err)
			}
			var rf *RealField
			if phantom {
				rf = NewRealPhantom(p.InBox())
			} else {
				rf = NewRealField(p.InBox())
				for i := range rf.Data {
					rf.Data[i] = float64(i % 7)
				}
			}
			if _, err := p.Forward(rf); err != nil {
				panic(err)
			}
		})
		return res.MaxClock
	}
	if ph, re := run(true), run(false); math.Abs(ph-re) > 1e-15 {
		t.Errorf("phantom %g != real %g", ph, re)
	}
}

// TestR2CTraceHasRealKernels verifies the r2c kernel and half-byte reshape
// appear in the trace.
func TestR2CTraceHasRealKernels(t *testing.T) {
	tr := trace.New()
	w := mpisim.NewWorld(machine.Summit(), 4, mpisim.Options{GPUAware: true, Tracer: tr})
	w.Run(func(c *mpisim.Comm) {
		p, err := NewRealPlan(c, RealConfig{Global: [3]int{16, 16, 16}, Opts: Options{Backend: BackendAlltoallv}})
		if err != nil {
			panic(err)
		}
		rf := NewRealPhantom(p.InBox())
		if _, err := p.Forward(rf); err != nil {
			panic(err)
		}
	})
	totals := tr.TotalByName(-1)
	if totals["cufft_r2c"] <= 0 {
		t.Errorf("missing r2c kernel in trace: %v", tr.Names())
	}
	if totals["MPI_Alltoallv"] <= 0 {
		t.Error("missing exchange in trace")
	}
}

// TestR2CBatchedMatchesSequential: batched R2C gives identical numerics.
func TestR2CBatchedMatchesSequential(t *testing.T) {
	global := [3]int{8, 6, 8}
	size := 4
	refs := [][]float64{randomRealGlobal(global, 61), randomRealGlobal(global, 62)}
	fullReal := tensor.FullBox(global)
	w := mpisim.NewWorld(machine.Summit(), size, mpisim.Options{GPUAware: true})
	ok := true
	w.Run(func(c *mpisim.Comm) {
		p, err := NewRealPlan(c, RealConfig{Global: global, Opts: Options{Backend: BackendAlltoallv}})
		if err != nil {
			panic(err)
		}
		mk := func(i int) *RealField {
			local := make([]float64, p.InBox().Volume())
			tensor.Pack(refs[i], fullReal, p.InBox(), local)
			return &RealField{Box: p.InBox(), Data: local}
		}
		batch, err := p.ForwardBatch([]*RealField{mk(0), mk(1)})
		if err != nil {
			panic(err)
		}
		for i := 0; i < 2; i++ {
			single, err := p.Forward(mk(i))
			if err != nil {
				panic(err)
			}
			for j := range single.Data {
				if single.Data[j] != batch[i].Data[j] {
					ok = false
					return
				}
			}
		}
	})
	if !ok {
		t.Error("batched R2C differs from sequential")
	}
}

// TestR2CBatchedRoundTrip: InverseBatch(ForwardBatch(x)) == x.
func TestR2CBatchedRoundTrip(t *testing.T) {
	global := [3]int{8, 8, 8}
	size := 6
	w := mpisim.NewWorld(machine.Summit(), size, mpisim.Options{GPUAware: true})
	var maxErr float64
	var mu sync.Mutex
	w.Run(func(c *mpisim.Comm) {
		p, err := NewRealPlan(c, RealConfig{Global: global, Opts: Options{Backend: BackendAlltoallv}})
		if err != nil {
			panic(err)
		}
		origs := make([][]float64, 2)
		rfs := make([]*RealField, 2)
		for i := range rfs {
			rfs[i] = NewRealField(p.InBox())
			for j := range rfs[i].Data {
				rfs[i].Data[j] = float64((j*7+i*13)%23) - 11
			}
			origs[i] = append([]float64(nil), rfs[i].Data...)
		}
		fs, err := p.ForwardBatch(rfs)
		if err != nil {
			panic(err)
		}
		back, err := p.InverseBatch(fs)
		if err != nil {
			panic(err)
		}
		local := 0.0
		for i := range back {
			for j := range origs[i] {
				if d := math.Abs(back[i].Data[j] - origs[i][j]); d > local {
					local = d
				}
			}
		}
		mu.Lock()
		if local > maxErr {
			maxErr = local
		}
		mu.Unlock()
	})
	if maxErr > 1e-9*float64(global[0]*global[1]*global[2]) {
		t.Errorf("batched R2C round trip differs by %g", maxErr)
	}
}

// TestReversedReshapesResolveLikeSwapped: every reversed reshape of a
// RealPlan (the C2R pipeline and its output reshape) must carry the
// exchange statistics and peer lists of the swapped exchange, so it resolves
// the same (schedule, chunks) as a reshape built directly on the swapped
// boxes — on the staged path, where CollAuto and auto-chunking both engage.
func TestReversedReshapesResolveLikeSwapped(t *testing.T) {
	const size = 48
	global := [3]int{64, 64, 64}
	half := [3]int{global[0], global[1], global[2]/2 + 1}
	w := mpisim.NewWorld(machine.Summit(), size, mpisim.Options{GPUAware: false})
	var mu sync.Mutex
	scheduled := 0
	res := w.Run(func(c *mpisim.Comm) {
		rp, err := NewRealPlan(c, RealConfig{Global: global})
		if err != nil {
			panic(err)
		}
		p := rp.plan
		// The forward reshapes' box lists, as the R2C builder lays them out.
		type pair struct{ from, to []tensor.Box3 }
		fwd := []pair{{DefaultBricks(size, global), pencilBoxes(global, 2, p.p, p.q)}}
		cur := pencilBoxes(half, 2, p.p, p.q)
		for _, target := range [][]tensor.Box3{
			pencilBoxes(half, 1, p.p, p.q), pencilBoxes(half, 0, p.p, p.q), DefaultBricks(size, half),
		} {
			if !boxesEqual(cur, target) {
				fwd = append(fwd, pair{cur, target})
				cur = target
			}
		}
		// The inverse list holds their reversed twins in reverse order.
		var revs []*reshapePlan
		var pairs []pair
		for _, st := range p.inv {
			if st.kind == stageReshape {
				revs = append(revs, st.rs)
				pairs = append(pairs, fwd[len(fwd)-len(revs)])
			}
		}
		if len(revs) != len(fwd) {
			t.Errorf("rank %d: %d reversed reshapes for %d forward ones", c.Rank(), len(revs), len(fwd))
			return
		}
		for i, rev := range revs {
			twin := buildReshape(c, pairs[i].to, pairs[i].from, "twin", 990+i)
			if (rev.group == nil) != (twin.group == nil) {
				t.Errorf("rank %d %s: group membership differs from the swapped reshape", c.Rank(), rev.label)
				continue
			}
			if rev.group == nil {
				continue
			}
			if rev.stats != twin.stats {
				t.Errorf("rank %d %s: stats %+v, swapped reshape %+v", c.Rank(), rev.label, rev.stats, twin.stats)
			}
			if !slices.Equal(rev.sendPeers, twin.sendPeers) || !slices.Equal(rev.recvPeers, twin.recvPeers) {
				t.Errorf("rank %d %s: peers %v/%v, swapped reshape %v/%v", c.Rank(), rev.label,
					rev.sendPeers, rev.recvPeers, twin.sendPeers, twin.recvPeers)
			}
			for _, eb := range []int{8, 16} {
				for _, batch := range []int{1, 64} {
					a1, k1, o1 := rev.resolve(p.opts, eb, batch)
					a2, k2, o2 := twin.resolve(p.opts, eb, batch)
					if a1 != a2 || k1 != k2 || o1 != o2 {
						t.Errorf("rank %d %s eb=%d batch=%d: resolved (%v, %d, %v), swapped reshape (%v, %d, %v)",
							c.Rank(), rev.label, eb, batch, a1, k1, o1, a2, k2, o2)
					}
					if a1 != mpisim.AlgoLinear || k1 > 1 {
						mu.Lock()
						scheduled++
						mu.Unlock()
					}
				}
			}
		}
	})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if scheduled == 0 {
		t.Error("no reversed reshape resolved a non-linear schedule or chunking; the test exercises nothing")
	}
}

// realGolden is the pinned virtual-time outcome of one RealPlan run: the
// makespan, an FNV-1a digest of every rank's end clock, and an FNV-1a digest
// of the sorted trace events (name, rank, start, end, bytes).
type realGolden struct {
	makespan float64
	clocks   uint64
	events   uint64
}

// runRealGolden runs a batch-1 phantom Forward then Inverse of a 64³ RealPlan
// on 48 Summit ranks and digests its virtual time.
func runRealGolden(t *testing.T, aware bool, bk Backend, wire WirePrecision) realGolden {
	t.Helper()
	tr := trace.New()
	w := mpisim.NewWorld(machine.Summit(), 48, mpisim.Options{GPUAware: aware, Tracer: tr})
	res := w.Run(func(c *mpisim.Comm) {
		p, err := NewRealPlan(c, RealConfig{Global: [3]int{64, 64, 64},
			Opts: Options{Backend: bk, Comm: CommConfig{Wire: wire}}})
		if err != nil {
			t.Errorf("NewRealPlan: %v", err)
			return
		}
		f, err := p.Forward(NewRealPhantom(p.InBox()))
		if err != nil {
			t.Errorf("Forward: %v", err)
			return
		}
		if _, err := p.Inverse(f); err != nil {
			t.Errorf("Inverse: %v", err)
		}
	})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	var buf [8]byte
	word := func(h hash.Hash64, v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	clocks := fnv.New64a()
	for _, c := range res.Clocks {
		word(clocks, math.Float64bits(c))
	}
	evs := tr.Events()
	slices.SortFunc(evs, func(a, b trace.Event) int {
		return cmp.Or(cmp.Compare(a.Rank, b.Rank), cmp.Compare(a.Start, b.Start),
			cmp.Compare(a.End, b.End), cmp.Compare(a.Name, b.Name), cmp.Compare(a.Bytes, b.Bytes))
	})
	events := fnv.New64a()
	for _, e := range evs {
		events.Write([]byte(e.Name))
		word(events, uint64(e.Rank))
		word(events, math.Float64bits(e.Start))
		word(events, math.Float64bits(e.End))
		word(events, uint64(e.Bytes))
	}
	return realGolden{makespan: res.MaxClock, clocks: clocks.Sum64(), events: events.Sum64()}
}

// TestRealPlanGoldenVirtualTime pins the exact virtual time of batch-1
// RealPlan round trips across transports, backends and wire precisions: per
// rank end clocks and every trace event must stay bit-identical, so a
// refactor of the R2C pipeline cannot move a single charge unnoticed.
func TestRealPlanGoldenVirtualTime(t *testing.T) {
	// Recorded before R2C/C2R became stage kinds of Plan.
	golden := map[string]realGolden{
		"aware=true/alltoallv/fp64":  {0.00037804600564258443, 0x8602f97a41626f0b, 0x1f69d338263173ed},
		"aware=true/alltoallv/fp32":  {0.0003621204850128594, 0x7710b4b545a5351a, 0x5e6b110ed49e9cc2},
		"aware=true/alltoall/fp64":   {0.001734790438905053, 0x832d3e48fe1d0249, 0x7762ac0d59d97027},
		"aware=true/alltoall/fp32":   {0.001717502613504519, 0x5117ed63c7ea5bf1, 0xc0b6c92d1f4011f5},
		"aware=true/alltoallw/fp64":  {0.0028916909072323714, 0x5849beef1403a9c1, 0xabec8de4bf82d5f7},
		"aware=true/alltoallw/fp32":  {0.0028916909072323714, 0x5849beef1403a9c1, 0xabec8de4bf82d5f7},
		"aware=true/p2p/fp64":        {0.0024853974534798495, 0x471c8a0f061d50a9, 0x703f77f262fc4e3f},
		"aware=true/p2p/fp32":        {0.0024876857611721573, 0xb49e3153a0179246, 0x5c5e3c55a2a2ddd2},
		"aware=false/alltoallv/fp64": {0.0004865625770711561, 0x7d894f2047717b8d, 0xbbb07b586b090227},
		"aware=false/alltoallv/fp32": {0.0004622644850128595, 0xe49637884d2d9843, 0xbc49f1bd998781fb},
		"aware=false/alltoall/fp64":  {0.0014989609376803458, 0x51190895e926e844, 0xbf00aa6edb09281c},
		"aware=false/alltoall/fp32":  {0.001473979397994097, 0x1642c45741217c44, 0x5a79c1278e50f3fc},
		"aware=false/alltoallw/fp64": {0.0028916909072323714, 0x5849beef1403a9c1, 0xabec8de4bf82d5f7},
		"aware=false/alltoallw/fp32": {0.0028916909072323714, 0x5849beef1403a9c1, 0xabec8de4bf82d5f7},
		"aware=false/p2p/fp64":       {0.0017585780249084232, 0x6f9afbd0e24b469c, 0x7d40a080b2a0ab5a},
		"aware=false/p2p/fp32":       {0.0017507177611721578, 0x17c2c4d2de7f3e69, 0x1021abd8ad59f189},
	}
	backends := []struct {
		name string
		bk   Backend
	}{{"alltoallv", BackendAlltoallv}, {"alltoall", BackendAlltoall}, {"alltoallw", BackendAlltoallw}, {"p2p", BackendP2P}}
	for _, aware := range []bool{true, false} {
		for _, b := range backends {
			for _, wire := range []WirePrecision{WireFp64, WireFp32} {
				name := fmt.Sprintf("aware=%v/%s/%v", aware, b.name, wire)
				got := runRealGolden(t, aware, b.bk, wire)
				if want := golden[name]; got != want {
					t.Errorf("%s: got {%v, %#x, %#x}, want {%v, %#x, %#x}", name,
						got.makespan, got.clocks, got.events, want.makespan, want.clocks, want.events)
				}
			}
		}
	}
}
