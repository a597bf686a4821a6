package main

import (
	"math"
	"math/rand"
	"strings"
	"time"

	"repro/heffte"
	"repro/internal/core"
	"repro/internal/fft"
	"repro/internal/machine"
	"repro/internal/model"
	"repro/internal/mpisim"
	"repro/internal/tensor"
	"repro/internal/topo"
	"repro/internal/trace"
)

// Layer replays: each times one layer's public entry points at the exact
// shapes a plan executes (geometry), on every rank's boxes, one goroutine
// per rank as in the real run. One replay op is what the workload's op
// asks of that layer: every compute stage (or reshape) of every rank, once
// per direction in dirs.

// timeOps runs op until budget has elapsed and at least minReps times, and
// returns the host milliseconds of each run.
func timeOps(budget time.Duration, minReps int, op func()) []float64 {
	var out []float64
	start := time.Now()
	for len(out) < minReps || time.Since(start) < budget {
		t := time.Now()
		op()
		out = append(out, ms(time.Since(t)))
	}
	return out
}

// fftReplay replays the plan's local FFT stages through internal/fft.
type fftReplay struct {
	g     *geometry
	dirs  []fft.Direction
	bufs  [][]complex128 // per rank, sized to its largest compute box
	flops float64        // nominal 5·n·log2(n) per line, per op
}

func newFFTReplay(g *geometry, dirs []fft.Direction, seed int64) *fftReplay {
	f := &fftReplay{g: g, dirs: dirs, bufs: make([][]complex128, g.ranks)}
	rng := rand.New(rand.NewSource(seed))
	for r := range f.bufs {
		n := 0
		for _, st := range g.steps {
			if st.kind != stepReshape && st.boxes[r].Volume() > n {
				n = st.boxes[r].Volume()
			}
		}
		f.bufs[r] = make([]complex128, n)
		for i := range f.bufs[r] {
			f.bufs[r][i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
	}
	for _, st := range g.steps {
		for _, b := range st.boxes {
			s := b.Sizes()
			switch {
			case b.Empty():
			case st.kind == stepFFT1D:
				n := float64(s[st.axis])
				f.flops += 5 * float64(b.Volume()) * math.Log2(n)
			case st.kind == stepFFT2D:
				f.flops += 5 * float64(b.Volume()) * math.Log2(float64(s[1]*s[2]))
			}
		}
	}
	f.flops *= float64(len(dirs))
	return f
}

// run computes one op: the transforms every rank's compute stages run,
// called exactly as the plan's local stage calls them.
func (f *fftReplay) run() {
	for _, dir := range f.dirs {
		for _, st := range f.g.steps {
			if st.kind == stepReshape {
				continue
			}
			parallelFor(f.g.ranks, func(r int) {
				b := st.boxes[r]
				if b.Empty() {
					return
				}
				s := b.Sizes()
				data := f.bufs[r][:b.Volume()]
				if st.kind == stepFFT2D {
					for i0 := 0; i0 < s[0]; i0++ {
						fft.Transform2D(data[i0*s[1]*s[2]:(i0+1)*s[1]*s[2]], s[1], s[2], dir)
					}
					return
				}
				p := fft.NewPlan(s[st.axis])
				switch st.axis {
				case 2:
					p.TransformBatch(data, 1, s[2], s[0]*s[1], dir)
				case 1:
					p.TransformNested(data, s[2], s[1]*s[2], s[0], 1, s[2], dir)
				case 0:
					p.TransformBatch(data, s[1]*s[2], 1, s[1]*s[2], dir)
				}
			})
		}
	}
}

// packJob is one sub-box a rank packs (or unpacks) in a reshape, at offset
// off of its staging buffer.
type packJob struct {
	sub tensor.Box3
	off int
}

// packReplay replays the reshape staging copies through internal/tensor.
type packReplay struct {
	g              *geometry
	dirs           int
	packs, unpacks [][][]packJob // [reshape][rank]
	local, staging [][]complex128
	bytes          float64 // bytes packed per op (each is unpacked once too)
}

func newPackReplay(g *geometry, dirs int) *packReplay {
	p := &packReplay{g: g, dirs: dirs, local: make([][]complex128, g.ranks), staging: make([][]complex128, g.ranks)}
	maxVol := make([]int, g.ranks)
	for _, st := range g.reshapes() {
		packs := make([][]packJob, g.ranks)
		unpacks := make([][]packJob, g.ranks)
		for r := 0; r < g.ranks; r++ {
			off := 0
			for s := 0; s < g.ranks; s++ {
				if sub := tensor.Intersect(st.from[r], st.to[s]); !sub.Empty() {
					packs[r] = append(packs[r], packJob{sub, off})
					off += sub.Volume()
				}
			}
			p.bytes += 16 * float64(off)
			off = 0
			for s := 0; s < g.ranks; s++ {
				if sub := tensor.Intersect(st.from[s], st.to[r]); !sub.Empty() {
					unpacks[r] = append(unpacks[r], packJob{sub, off})
					off += sub.Volume()
				}
			}
			maxVol[r] = max(maxVol[r], st.from[r].Volume(), st.to[r].Volume())
		}
		p.packs = append(p.packs, packs)
		p.unpacks = append(p.unpacks, unpacks)
	}
	for r := range maxVol {
		p.local[r] = make([]complex128, maxVol[r])
		p.staging[r] = make([]complex128, maxVol[r])
	}
	p.bytes *= float64(dirs)
	return p
}

// runPack packs every rank's outgoing blocks of every reshape.
func (p *packReplay) runPack() {
	for d := 0; d < p.dirs; d++ {
		for k, st := range p.g.reshapes() {
			parallelFor(p.g.ranks, func(r int) {
				own := st.from[r]
				for _, j := range p.packs[k][r] {
					tensor.Pack(p.local[r][:own.Volume()], own, j.sub, p.staging[r][j.off:j.off+j.sub.Volume()])
				}
			})
		}
	}
}

// runUnpack scatters every rank's incoming blocks of every reshape.
func (p *packReplay) runUnpack() {
	for d := 0; d < p.dirs; d++ {
		for k, st := range p.g.reshapes() {
			parallelFor(p.g.ranks, func(r int) {
				own := st.to[r]
				for _, j := range p.unpacks[k][r] {
					tensor.Unpack(p.local[r][:own.Volume()], own, j.sub, p.staging[r][j.off:j.off+j.sub.Volume()])
				}
			})
		}
	}
}

// exchangeResult is the host cost of replaying a plan's all-to-alls.
type exchangeResult struct {
	samples []float64 // host ms per op
	allocMB float64   // host bytes allocated per op
	topo    *topo.System
}

// simAlgo maps the schedule a phase resolved to onto the simulator's.
func simAlgo(a heffte.CollectiveAlgo) mpisim.Algo {
	switch a {
	case heffte.AlgoPairwise:
		return mpisim.AlgoPairwise
	case heffte.AlgoRing:
		return mpisim.AlgoRing
	case heffte.AlgoBruck:
		return mpisim.AlgoBruck
	case heffte.AlgoNodeAware:
		return mpisim.AlgoNodeAware
	}
	return mpisim.AlgoLinear
}

// replayExchanges runs the plan's reshapes as bare AlltoallvWith calls with
// the resolved schedule, wire format and per-pair counts, on a world of the
// same size and options. Payloads are device buffers moved to the receiver,
// as the plan ships them; their contents are never read by the transport,
// so one zeroed buffer per rank backs every block (none when phantom).
func replayExchanges(g *geometry, opts []heffte.WorldOption, dirs int, phantom bool, budget time.Duration, minReps int) exchangeResult {
	w := heffte.NewWorldWith(heffte.Summit(), g.ranks, opts...)
	res := exchangeResult{topo: w.Topo()}
	hb := newHostBarrier(g.ranks)
	reshapes := g.reshapes()
	var start, opStart time.Time
	var m0, m1 memSnap
	cont := true
	w.Run(func(c *heffte.Comm) {
		r := c.Rank()
		groups := make([]*heffte.Comm, len(reshapes))
		sends := make([][]mpisim.Buf, len(reshapes))
		var backing []complex128
		for k, st := range reshapes {
			groups[k] = c.Split(st.color[r], r)
			if groups[k] == nil {
				continue
			}
			members := st.members[st.color[r]]
			sends[k] = make([]mpisim.Buf, len(members))
			n := 0
			for gi, m := range members {
				v := tensor.Intersect(st.from[r], st.to[m]).Volume()
				sends[k][gi] = mpisim.Buf{N: v, Loc: machine.Device, Move: true, Wire: st.phase.Wire}
				n += v
			}
			if !phantom && n > len(backing) {
				backing = make([]complex128, n)
			}
		}
		if !phantom {
			for k := range sends {
				off := 0
				for gi := range sends[k] {
					b := &sends[k][gi]
					b.Data, off = backing[off:off+b.N:off+b.N], off+b.N
				}
			}
		}
		exchange := func() {
			for d := 0; d < dirs; d++ {
				for k, st := range reshapes {
					if groups[k] != nil {
						groups[k].AlltoallvWith(sends[k], simAlgo(st.phase.Algo))
					}
				}
			}
		}
		exchange() // warm-up
		hb.Wait(func() { m0 = readMem(); start = time.Now() })
		for {
			hb.Wait(func() {
				cont = len(res.samples) < minReps || time.Since(start) < budget
				opStart = time.Now()
			})
			if !cont {
				break
			}
			exchange()
			hb.Wait(func() { res.samples = append(res.samples, ms(time.Since(opStart))) })
		}
		hb.Wait(func() { m1 = readMem() })
	})
	res.allocMB, _ = m0.perOp(m1, len(res.samples))
	return res
}

// virtTotals reduces a traced run to per-op virtual microseconds per event
// name: each name's per-rank sum, maximum over ranks (TotalByName(-1)),
// divided by the ops traced.
func virtTotals(tr *trace.Tracer, ops int) map[string]float64 {
	out := map[string]float64{}
	if ops == 0 {
		return out
	}
	for name, v := range tr.TotalByName(-1) {
		out[name] = v * 1e6 / float64(ops)
	}
	return out
}

// sumNames adds the totals of every event name matching pred.
func sumNames(t map[string]float64, pred func(string) bool) float64 {
	s := 0.0
	for name, v := range t {
		if pred(name) {
			s += v
		}
	}
	return s
}

func isFFTKernel(name string) bool {
	return strings.HasPrefix(name, "cufft_") || strings.HasPrefix(name, "rocfft_")
}

func isExchange(name string) bool {
	return strings.HasPrefix(name, "MPI_Alltoall") || strings.HasPrefix(name, "MPI_Ialltoall")
}

// exchangeCalls groups the traced blocking all-to-alls by per-rank call
// order (call i on every rank is the same logical exchange) and returns,
// per call, the slowest rank's duration and the spread between the slowest
// and fastest rank, in virtual microseconds.
func exchangeCalls(tr *trace.Tracer) (slowest, skew []float64) {
	byRank := map[int][]float64{}
	for _, e := range tr.Events() { // sorted by (name, rank, start)
		if e.Name == "MPI_Alltoallv" {
			byRank[e.Rank] = append(byRank[e.Rank], e.Duration()*1e6)
		}
	}
	var lo []float64
	for _, ds := range byRank {
		for i, d := range ds {
			if i >= len(slowest) {
				slowest = append(slowest, d)
				lo = append(lo, d)
			}
			slowest[i] = math.Max(slowest[i], d)
			lo[i] = math.Min(lo[i], d)
		}
	}
	skew = make([]float64, len(slowest))
	for i := range slowest {
		skew[i] = slowest[i] - lo[i]
	}
	return slowest, skew
}

// predictPhase evaluates internal/model's closed form for the schedule a
// reshape resolved to, on the exchange shape of each of its groups; the
// slowest group sets the phase time. The shape and machine parameters are
// derived from the boxes and the world's topology the same way the plan's
// schedule picker derives them.
func predictPhase(st *step, sys *topo.System, m *machine.Model, gpuAware, checksums bool) float64 {
	eb := core.WireElemSize(st.phase.Wire, 16)
	worst := 0.0
	for _, members := range st.members {
		s := groupShape(st, members, sys)
		if s.pairs == 0 {
			continue
		}
		oh := m.HostOverheadColl
		if gpuAware {
			oh = m.DeviceOverheadColl
		}
		naiveBW, schedBW := s.naiveBW, s.schedBW
		if naiveBW == 0 {
			naiveBW, schedBW = m.IntraBW, m.IntraBW
		}
		cp := model.CollParams{
			Overhead: oh, Inject: m.CollInject, Congestion: m.CollCongestion,
			InterBW: schedBW, NaiveInterBW: naiveBW, IntraBW: m.IntraBW,
			InterLat: m.InterLatency, IntraLat: m.IntraLatency, MemBW: m.GPU.MemBW,
			LeaderBW: s.leaderBW, Pipeline: float64(m.CollPipeline),
		}
		if checksums {
			cp.ChecksumBW, cp.ChecksumOverhead = m.GPU.ChecksumRate()
		}
		shape := model.AlltoallShape{
			P:         len(members),
			Dst:       (s.pairs + len(members) - 1) / len(members),
			Rounds:    s.rounds,
			Bytes:     float64(s.elems) / float64(s.pairs) * float64(eb),
			InterFrac: s.interFrac,
			Nodes:     s.nodes,
			PerNode:   s.perNode,
		}
		worst = math.Max(worst, model.AlltoallTime(modelAlgo(st.phase.Algo), shape, cp))
	}
	return worst * 1e6
}

func modelAlgo(a heffte.CollectiveAlgo) model.AlltoallAlgo {
	switch a {
	case heffte.AlgoPairwise:
		return model.AlltoallPairwise
	case heffte.AlgoRing:
		return model.AlltoallRing
	case heffte.AlgoBruck:
		return model.AlltoallBruck
	case heffte.AlgoNodeAware:
		return model.AlltoallNodeAware
	}
	return model.AlltoallLinear
}

// exchShape is one group's exchange graph: the quantities the closed forms
// take.
type exchShape struct {
	pairs, elems, rounds, nodes, perNode int
	interFrac                            float64
	naiveBW, schedBW, leaderBW           float64 // slowest inter-node flows
}

func groupShape(st *step, members []int, sys *topo.System) exchShape {
	var s exchShape
	perNode := map[int]int{}
	for _, r := range members {
		perNode[sys.Node(r)]++
	}
	s.nodes = len(perNode)
	for _, c := range perNode {
		s.perNode = max(s.perNode, c)
	}
	offsets := map[int]bool{}
	minBW := func(cur, bw float64) float64 {
		if cur == 0 || bw < cur {
			return bw
		}
		return cur
	}
	for i, ri := range members {
		for j, rj := range members {
			if i == j {
				continue
			}
			v := tensor.Intersect(st.from[ri], st.to[rj]).Volume()
			if v == 0 {
				continue
			}
			s.pairs++
			s.elems += v
			offsets[(j-i+len(members))%len(members)] = true
			if !sys.SameNode(ri, rj) {
				s.interFrac++
				s.naiveBW = minBW(s.naiveBW, sys.NaiveFlowBW(ri, rj))
				s.schedBW = minBW(s.schedBW, sys.SchedFlowBW(ri, rj))
				ni, nj := sys.Node(ri), sys.Node(rj)
				s.leaderBW = minBW(s.leaderBW, sys.LeaderBW(ni, nj, perNode[ni]))
			}
		}
	}
	s.rounds = len(offsets)
	if s.pairs > 0 {
		s.interFrac /= float64(s.pairs)
	}
	return s
}
