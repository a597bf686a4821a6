package main

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"time"

	"repro/heffte"
	"repro/internal/core"
	"repro/internal/fft"
	"repro/internal/tensor"
	"repro/internal/topo"
)

// roundTripTol is the round-trip tolerance of the library's own
// distributed-transform tests (internal/core), here peak-normalized.
const roundTripTol = 1e-8

// planSpec is a resident-plan workload: one world and one plan, then
// Forward+Inverse of one field per op.
type planSpec struct {
	name      string
	ranks     int
	global    [3]int
	inOut     []tensor.Box3 // nil: the library's minimum-surface bricks
	pq        [2]int        // zero: the most square pencil grid
	decomp    heffte.Decomposition
	phantom   bool
	staged    bool // device buffers stage through host memory (not GPU-aware)
	wire      heffte.WirePrecision
	integrity heffte.IntegrityConfig
}

// pencil128 is 64 Summit GPUs transforming a real-payload 128³ field.
func pencil128() planSpec {
	return planSpec{name: "pencil128", ranks: 64, global: [3]int{128, 128, 128}, decomp: heffte.DecompPencils}
}

// scale768 is the paper's Table III grid for 768 GPUs (128 nodes) on a
// 512³ phantom field: sizes only, so host time is the exchange engine.
func scale768() planSpec {
	g := [3]int{512, 512, 512}
	e := heffte.LookupTableIII(768)
	return planSpec{name: "scale768", ranks: 768, global: g, inOut: e.InOut.Decompose(g),
		pq: [2]int{e.P, e.Q}, decomp: heffte.DecompPencils, phantom: true}
}

func (s planSpec) config() heffte.Config {
	return heffte.Config{Global: s.global, InBoxes: s.inOut, OutBoxes: s.inOut,
		Opts: heffte.Options{Decomp: s.decomp, PQ: s.pq, Comm: heffte.CommConfig{Wire: s.wire}}}
}

func (s planSpec) boxes() []tensor.Box3 {
	if s.inOut != nil {
		return s.inOut
	}
	return heffte.DefaultBricks(s.ranks, s.global)
}

func (s planSpec) worldOpts(tr *heffte.Tracer) []heffte.WorldOption {
	opts := []heffte.WorldOption{heffte.WithGPUAware(!s.staged), heffte.WithIntegrity(s.integrity)}
	if tr != nil {
		opts = append(opts, heffte.WithTracer(tr))
	}
	return opts
}

// tolerance is the peak-normalized round-trip error a plan may show: the
// core tests' tolerance at full precision, and with a compressed wire the
// bound the core wire tests apply to a round trip (the analytic bound over
// the forward and inverse compressed exchanges, times √N for the change of
// peak between signal and spectrum).
func (s planSpec) tolerance(plan *heffte.Plan) float64 {
	if s.wire == heffte.WireFp64 {
		return roundTripTol
	}
	n := float64(s.global[0] * s.global[1] * s.global[2])
	return heffte.WireErrorBound(s.wire, 2*plan.CompressedExchanges()) * math.Sqrt(n)
}

// loopResult is what one resident-plan run measured.
type loopResult struct {
	setup, build time.Duration // NewWorld+NewPlan, and NewPlan alone
	samples      []float64     // host ms per op
	ops, failed  int
	virtPerOp    float64 // µs, first measured op (every op is identical)
	maxErr       float64
	allocMB      float64 // per op
	gcMs         float64 // per op
	elapsed      time.Duration
	err          error

	phases    []heffte.CommPhase
	volumes   [][]core.ExchangeVolume // per rank
	decomp    heffte.Decomposition
	p, q      int
	exchanges int
	integrity heffte.IntegritySnapshot
}

// rankInput is a rank's seeded input field and a copy to check against.
func rankInput(plan *heffte.Plan, seed int64, rank int, phantom bool) (f *heffte.Field, orig []complex128) {
	if phantom {
		return heffte.NewPhantom(plan.InBox()), nil
	}
	f = heffte.NewField(plan.InBox())
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(rank)))
	for i := range f.Data {
		f.Data[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return f, append([]complex128(nil), f.Data...)
}

// residentLoop builds the world and plan once, runs one warm-up op, then
// times Forward+Inverse ops until budget has elapsed. Each op is cut by host
// barriers, so a sample is the op's host wall time on every rank; after
// each sample every rank checks its round trip and restores its input
// outside the timed region.
func residentLoop(spec planSpec, seed int64, budget time.Duration, minOps int, tr *heffte.Tracer) *loopResult {
	res := &loopResult{volumes: make([][]core.ExchangeVolume, spec.ranks)}
	hb := newHostBarrier(spec.ranks)
	before := make([]float64, spec.ranks)
	after := make([]float64, spec.ranks)
	errs := make([]error, spec.ranks)
	rankErr := make([]float64, spec.ranks)
	tol := roundTripTol
	var t0, tb, start, opStart time.Time
	var m0, m1 memSnap
	cont := false
	// settle folds the previous op's per-rank outcome into the counters.
	settle := func() {
		bad := false
		for r := range errs {
			if errs[r] != nil {
				if res.err == nil {
					res.err = errs[r]
				}
				bad = true
			}
			if rankErr[r] > tol || math.IsNaN(rankErr[r]) {
				if res.err == nil {
					res.err = fmt.Errorf("rank %d: round trip error %.3g above %.3g", r, rankErr[r], tol)
				}
				bad = true
			}
			res.maxErr = math.Max(res.maxErr, rankErr[r])
			errs[r], rankErr[r] = nil, 0
		}
		if bad {
			res.failed++
		}
	}

	t0 = time.Now()
	w := heffte.NewWorldWith(heffte.Summit(), spec.ranks, spec.worldOpts(tr)...)
	w.Run(func(c *heffte.Comm) {
		r := c.Rank()
		hb.Wait(func() { tb = time.Now() })
		plan, err := heffte.NewPlan(c, spec.config())
		hb.Wait(func() { res.build, res.setup = time.Since(tb), time.Since(t0) })
		if err != nil {
			// Identical configs fail identically on every rank.
			if r == 0 {
				res.err = err
			}
			return
		}
		defer plan.Close()
		res.volumes[r] = plan.CommVolumes()
		if r == 0 {
			res.phases = plan.CommPhases()
			res.decomp = plan.Decomp()
			res.p, res.q = plan.PencilGrid()
			res.exchanges = plan.Exchanges()
			tol = spec.tolerance(plan)
		}
		f, orig := rankInput(plan, seed, r, spec.phantom)
		op := func() error {
			if err := plan.Forward(f); err != nil {
				return err
			}
			if !f.Box.Equal(plan.OutBox()) {
				return fmt.Errorf("rank %d: forward ended on %v, want OutBox %v", r, f.Box, plan.OutBox())
			}
			if err := plan.Inverse(f); err != nil {
				return err
			}
			if !f.Box.Equal(plan.InBox()) {
				return fmt.Errorf("rank %d: inverse ended on %v, want InBox %v", r, f.Box, plan.InBox())
			}
			return nil
		}
		errs[r] = op() // warm-up: pools, kernel plans and caches fill here
		if orig != nil {
			copy(f.Data, orig)
		}
		hb.Wait(func() {
			settle() // a failed warm-up counts as one failed attempt
			res.ops = res.failed
			tr.Reset()
			m0 = readMem()
			start = time.Now()
		})
		for {
			before[r] = c.Clock()
			hb.Wait(func() {
				settle()
				cont = res.err == nil && (res.ops < minOps || time.Since(start) < budget)
				opStart = time.Now()
			})
			if !cont {
				break
			}
			errs[r] = op()
			after[r] = c.Clock()
			hb.Wait(func() {
				res.samples = append(res.samples, ms(time.Since(opStart)))
				res.ops++
				if res.ops == 1 {
					res.virtPerOp = (maxOf(after) - maxOf(before)) * 1e6
				}
			})
			if orig != nil && errs[r] == nil {
				rankErr[r] = peakRelErr(f.Data, orig)
				copy(f.Data, orig)
			}
		}
		hb.Wait(func() { m1 = readMem(); res.elapsed = time.Since(start) })
	})
	res.allocMB, res.gcMs = m0.perOp(m1, res.ops)
	res.integrity = w.IntegrityCounters().Snapshot()
	return res
}

func maxOf(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}

// setupOnce times NewWorld plus a collective NewPlan on every rank.
func setupOnce(spec planSpec) (time.Duration, error) {
	hb := newHostBarrier(spec.ranks)
	var d time.Duration
	var perr error
	t0 := time.Now()
	w := heffte.NewWorldWith(heffte.Summit(), spec.ranks, spec.worldOpts(nil)...)
	w.Run(func(c *heffte.Comm) {
		plan, err := heffte.NewPlan(c, spec.config())
		hb.Wait(func() { d = time.Since(t0) })
		if err != nil {
			if c.Rank() == 0 {
				perr = err
			}
			return
		}
		plan.Close()
	})
	return d, perr
}

// runPlan runs a resident-plan workload. Untraced, it reports the
// end-to-end metrics; traced, it splits the budget between an untraced
// loop, a traced loop, and the layer replays, and reports the per-layer
// metrics.
func runPlan(spec planSpec, o runOpts, rep *report) error {
	if !o.trace {
		setups, err := repeatSetup(o, func() (time.Duration, error) { return setupOnce(spec) })
		if err != nil {
			return err
		}
		lr := residentLoop(spec, o.seed, o.budget, 5, nil)
		rep.count(lr.ops, lr.failed)
		if lr.err != nil {
			return lr.err
		}
		rep.set("host_ms_p50", median(lr.samples))
		rep.set("host_ms_p90", quantile(lr.samples, 0.9))
		rep.set("ops_per_s", float64(lr.ops-lr.failed)/lr.elapsed.Seconds())
		rep.set("alloc_mb_per_op", lr.allocMB)
		rep.set("setup_s", median(setups))
		rep.set("virt_us_per_op", lr.virtPerOp)
		rep.set("max_rel_err", lr.maxErr)
		rep.set("samples", float64(len(lr.samples)))
		rep.notef("setup_s is the median of %d set-ups; host_ms quantiles over %d ops", len(setups), len(lr.samples))
		return nil
	}

	if err := planLayers(spec, o.seed, o.budget*9/10, rep); err != nil {
		return err
	}
	base := 0.0
	if !spec.phantom {
		base = serialBaseline(spec.global, o.seed, o.budget/10)
	}
	rep.set("baseline.serial_fft_ms", base)
	for _, name := range []string{"sched.mean_batch", "sched.batches", "sched.rejected", "sched.server_latency_ms_p50",
		"cache.hit_ratio", "cache.evictions", "serve.retries", "serve.virt_us_per_req", "gen.lag_ms_p90"} {
		rep.set(name, 0) // no serving layer on this path
	}
	return nil
}

// planLayers is the traced run of one resident plan: an untraced loop, a
// traced loop, the exchange replay and the local-layer replays each get a
// quarter of the budget. Extensive values are per op (one Forward plus one
// Inverse).
func planLayers(spec planSpec, seed int64, budget time.Duration, rep *report) error {
	quarter := budget / 4
	plain := residentLoop(spec, seed, quarter, 3, nil)
	rep.count(plain.ops, plain.failed)
	if plain.err != nil {
		return plain.err
	}
	tr := heffte.NewTracer()
	traced := residentLoop(spec, seed, quarter, 3, tr)
	rep.count(traced.ops, traced.failed)
	if traced.err != nil {
		return traced.err
	}
	exec := median(plain.samples)
	rep.set("core.exec_host_ms", exec)
	rep.set("trace.overhead_pct", (median(traced.samples)/exec-1)*100)
	rep.set("core.plan_build_ms", ms(plain.build))
	rep.set("core.exchanges", float64(plain.exchanges))
	rep.set("gc.pause_ms_per_op", plain.gcMs)
	rep.set("virt_us_per_op", plain.virtPerOp)
	rep.set("max_rel_err", math.Max(plain.maxErr, traced.maxErr))
	rep.set("samples", float64(len(plain.samples)))
	setIntegrity(rep, plain.integrity, plain.ops+1)

	g, err := newGeometry(spec.global, spec.boxes(), spec.boxes(), plain.decomp, plain.p, plain.q, plain.phases)
	if err != nil {
		return err
	}
	dirs := []fft.Direction{fft.Forward, fft.Inverse}
	setTraceVirt(rep, virtTotals(tr, traced.ops))
	sendBytes, msgs, pcie := volumeTotals(traced.volumes, len(dirs), spec.staged)
	rep.set("exchange.bytes", sendBytes)
	rep.set("exchange.msgs", msgs)
	rep.set("pcie.bytes", pcie)

	slowest, skew := exchangeCalls(tr)
	rep.set("exchange.skew_us", mean(skew))
	ex := replayExchanges(g, spec.worldOpts(nil), len(dirs), spec.phantom, quarter, 2)
	rep.set("exchange.host_ms", median(ex.samples))
	rep.set("exchange.alloc_mb", ex.allocMB)
	modelResidual(rep, g, slowest, len(dirs), ex.topo, !spec.staged, spec.integrity.Checksums)

	layers := median(ex.samples)
	if spec.phantom {
		for _, name := range []string{"fft.host_ms", "fft.flops", "fft.gflops_host", "pack.host_ms", "unpack.host_ms", "pack.bytes"} {
			rep.set(name, 0)
		}
	} else {
		layers += replayLocal(rep, g, dirs, seed, quarter)
	}
	rep.set("core.other_ms", exec-layers)
	rep.notef("%s: per-layer virt from %d traced ops; exec %.2f ms over %d untraced ops; core.other_ms is an estimate (exec minus layer replays)",
		spec.name, traced.ops, exec, plain.ops)
	return nil
}

// replayLocal times the fft and tensor layers at the geometry's shapes and
// returns their combined host ms per op.
func replayLocal(rep *report, g *geometry, dirs []fft.Direction, seed int64, budget time.Duration) float64 {
	fr := newFFTReplay(g, dirs, seed)
	fftMs := median(timeOps(budget/2, 3, fr.run))
	rep.set("fft.host_ms", fftMs)
	rep.set("fft.flops", fr.flops)
	rep.set("fft.gflops_host", fr.flops/(fftMs*1e6))
	pr := newPackReplay(g, len(dirs))
	packMs := median(timeOps(budget/4, 3, pr.runPack))
	unpackMs := median(timeOps(budget/4, 3, pr.runUnpack))
	rep.set("pack.host_ms", packMs)
	rep.set("unpack.host_ms", unpackMs)
	rep.set("pack.bytes", pr.bytes)
	return fftMs + packMs + unpackMs
}

// serialBaseline times a single-goroutine serial fft.Transform3D of the
// workload's grid: the plain-FFT cost the simulator's op is compared with.
func serialBaseline(global [3]int, seed int64, budget time.Duration) float64 {
	prev := fft.SetWorkers(1)
	defer fft.SetWorkers(prev)
	data := make([]complex128, global[0]*global[1]*global[2])
	rng := rand.New(rand.NewSource(seed))
	for i := range data {
		data[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return median(timeOps(budget, 3, func() {
		fft.Transform3D(data, global[0], global[1], global[2], fft.Forward)
		fft.Transform3D(data, global[0], global[1], global[2], fft.Inverse)
	}))
}

// setTraceVirt reports the per-layer virtual time of a traced run.
func setTraceVirt(rep *report, vt map[string]float64) {
	rep.set("fft.virt_us", sumNames(vt, isFFTKernel))
	rep.set("fft.strided_virt_us", sumNames(vt, func(n string) bool { return isFFTKernel(n) && strings.HasSuffix(n, "_strided") }))
	rep.set("pack.virt_us", vt["pack"])
	rep.set("unpack.virt_us", vt["unpack"])
	rep.set("reorder.virt_us", vt["reorder"])
	rep.set("exchange.virt_us", sumNames(vt, isExchange))
	rep.set("convert.virt_us", vt["convert"])
	rep.set("checksum.virt_us", vt["checksum"]+vt["checksum_verify"])
	rep.set("retain.virt_us", vt["retain"])
	rep.set("batched_fft.virt_us", vt["batched_fft"])
}

// volumeTotals sums the plan's exchange volumes over ranks, per op of
// dirs transforms: bytes sent off-rank, messages, and — when the world
// stages device buffers through the host — bytes crossing PCIe (every block
// goes down on the sender and up on the receiver, the self block included).
func volumeTotals(vols [][]core.ExchangeVolume, dirs int, staged bool) (sendBytes, msgs, pcie float64) {
	for _, vs := range vols {
		for _, v := range vs {
			sendBytes += float64(v.SendBytes)
			msgs += float64(v.NumDst)
			if staged {
				pcie += float64(v.SendBytes + v.RecvBytes + 2*v.SelfBytes)
			}
		}
	}
	d := float64(dirs)
	return sendBytes * d, msgs * d, pcie * d
}

// modelResidual prints, per reshape phase, the simulated exchange time
// beside internal/model's closed form for the resolved schedule, and
// reports their per-op totals and ratio.
func modelResidual(rep *report, g *geometry, slowest []float64, dirs int, sys *topo.System, gpuAware, checksums bool) {
	reshapes := g.reshapes()
	k := len(reshapes)
	sim := make([]float64, k)
	n := make([]int, k)
	for i, d := range slowest {
		sim[i%k] += d
		n[i%k]++
	}
	m := heffte.Summit()
	var simTotal, predTotal float64
	for j, st := range reshapes {
		pred := predictPhase(st, sys, m, gpuAware, checksums)
		s := 0.0
		if n[j] > 0 {
			s = sim[j] / float64(n[j])
		}
		simTotal += s
		predTotal += pred
		rep.notef("phase %-9s %-10s wire %-4s sim %10.3f virt_us  model %10.3f virt_us  sim/model %.3f",
			st.label, st.phase.Algo, st.phase.Wire, s, pred, s/pred)
	}
	rep.set("model.exchange_pred_us", predTotal*float64(dirs))
	rep.set("model.residual", simTotal/predTotal)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func setIntegrity(rep *report, s heffte.IntegritySnapshot, ops int) {
	per := func(v int64) float64 { return float64(v) / float64(ops) }
	rep.set("integrity.checksum_checks", per(s.ChecksumChecks))
	rep.set("integrity.checksum_mismatches", per(s.ChecksumMismatches))
	rep.set("integrity.retransmits", per(s.Retransmits))
	rep.set("integrity.invariant_checks", per(s.InvariantChecks))
	rep.set("integrity.invariant_failures", per(s.InvariantFailures))
	rep.set("integrity.phase_reexecs", per(s.PhaseReexecs))
}
