package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"

	"repro/heffte"
	"repro/heffte/serve"
	"repro/internal/fft"
)

// The serve-guarded workload: an open-loop Poisson stream at a fixed
// offered rate, from one generator goroutine, against a server whose
// engines stage through host memory, ship interior exchanges as fp32 and
// run every integrity defense.
const (
	serveRate     = 30.0 // offered requests per second, below capacity
	serveRanks    = 8
	servePoolSize = 3 // seeded inputs per shape
)

// serveShapes are the request shapes; serveWeights their shares of the
// offered mix. With small requests the majority, the median and the 90th
// percentile each fall inside one shape's latency cluster instead of in the
// gap between them.
var (
	serveShapes  = [][3]int{{32, 32, 32}, {64, 64, 64}}
	serveWeights = []int{3, 1}
)

func serveConfig() serve.Config {
	return serve.Config{
		Ranks:      serveRanks,
		Workers:    1,
		NoGPUAware: true,
		Comm:       heffte.CommConfig{Wire: heffte.WireFp32},
		Integrity:  heffte.IntegrityConfig{Checksums: true, Invariants: true},
	}
}

// serveSpec is the resident plan a serve engine of one shape runs, for the
// traced layer replay (the server has no tracer hook).
func serveSpec(global [3]int) planSpec {
	c := serveConfig()
	return planSpec{name: fmt.Sprintf("serve %dx%dx%d", global[0], global[1], global[2]),
		ranks: c.Ranks, global: global, decomp: heffte.DecompAuto,
		staged: c.NoGPUAware, wire: c.Comm.Wire, integrity: c.Integrity}
}

// serveInput is one pooled request payload with its serial references.
type serveInput struct {
	global [3]int
	weight int
	data   []complex128
	ref    [2][]complex128 // by serve.Direction
}

func servePool(seed int64) []serveInput {
	rng := rand.New(rand.NewSource(seed))
	var pool []serveInput
	for si, g := range serveShapes {
		for i := 0; i < servePoolSize; i++ {
			in := serveInput{global: g, weight: serveWeights[si], data: make([]complex128, g[0]*g[1]*g[2])}
			for j := range in.data {
				in.data[j] = complex(rng.NormFloat64(), rng.NormFloat64())
			}
			for d, dir := range []fft.Direction{fft.Forward, fft.Inverse} {
				ref := append([]complex128(nil), in.data...)
				fft.Transform3D(ref, g[0], g[1], g[2], dir)
				in.ref[d] = ref
			}
			pool = append(pool, in)
		}
	}
	return pool
}

// serveTolerance is the accuracy a response must meet per shape: the
// analytic bound of the fp32 wire over the compressed exchanges the shape's
// plan resolved to (from the server's engine stats), plus 1e-12 for the
// fp64 rounding that separates the distributed result from the serial one.
func serveTolerance(s *serve.Server) map[[3]int]float64 {
	out := map[[3]int]float64{}
	for _, e := range s.Stats().Engines {
		var g [3]int
		if _, err := fmt.Sscanf(e.Shape, "%dx%dx%d", &g[0], &g[1], &g[2]); err != nil {
			continue
		}
		n := 0
		for _, p := range e.Comm {
			if p.Wire != heffte.WireFp64 {
				n++
			}
		}
		out[g] = heffte.WireErrorBound(serveConfig().Comm.Wire, n) + 1e-12
	}
	return out
}

// check runs one request and verifies its response.
func (in *serveInput) check(req *serve.Request, tol map[[3]int]float64) (float64, error) {
	e := peakRelErr(req.Data, in.ref[req.Direction])
	t, ok := tol[in.global]
	if !ok {
		return e, fmt.Errorf("no engine reported for shape %v", in.global)
	}
	if !(e <= t) {
		return e, fmt.Errorf("%v %v response error %.3g above %.3g", in.global, req.Direction, e, t)
	}
	return e, nil
}

func (in *serveInput) request(dir serve.Direction) *serve.Request {
	return &serve.Request{Global: in.global, Direction: dir, Data: append([]complex128(nil), in.data...)}
}

// setupServer starts a server and sends the first request of each shape,
// which builds its engine. It returns the server, the set-up time and the
// per-shape tolerances.
func setupServer(pool []serveInput) (*serve.Server, time.Duration, map[[3]int]float64, error) {
	t0 := time.Now()
	s := serve.New(serveConfig())
	var reqs []*serve.Request
	var ins []*serveInput
	for i := 0; i < len(pool); i += servePoolSize {
		req := pool[i].request(serve.Forward)
		if err := s.Submit(context.Background(), req); err != nil {
			s.Close()
			return nil, 0, nil, fmt.Errorf("first %v request: %w", pool[i].global, err)
		}
		reqs, ins = append(reqs, req), append(ins, &pool[i])
	}
	d := time.Since(t0)
	tol := serveTolerance(s)
	for i, req := range reqs {
		if _, err := ins[i].check(req, tol); err != nil {
			s.Close()
			return nil, 0, nil, err
		}
	}
	return s, d, tol, nil
}

// loadResult is what one open-loop run measured.
type loadResult struct {
	latency       []float64 // host ms from scheduled send to verified response
	lag           []float64 // host ms the generator sent late
	sent, failed  int
	maxErr        float64
	elapsed       time.Duration
	allocMB, gcMs float64 // per completed request
	firstErr      error
	stats         serve.Stats
}

// openLoop offers Poisson arrivals at serveRate for budget from this one
// generator goroutine. Each request's
// payload is copied before its send time, and its latency counts from the
// time it was due, so generator stalls show up as latency.
func openLoop(s *serve.Server, pool []serveInput, tol map[[3]int]float64, seed int64, budget time.Duration) *loadResult {
	res := &loadResult{}
	// A Poisson process conditioned on its count: exactly rate×budget
	// arrivals at uniformly random times, so every seed offers the same load.
	// The requests cycle through every pooled input in both directions, in
	// proportion to its shape's weight, and are then shuffled, so every seed
	// offers the same mix too.
	rng := rand.New(rand.NewSource(seed ^ 0x5e7e))
	n := int(serveRate * budget.Seconds())
	offsets := make([]float64, n)
	for i := range offsets {
		offsets[i] = rng.Float64() * budget.Seconds()
	}
	sort.Float64s(offsets)
	var menu []int // pool index × 2 + direction, each input weight times
	for pi, in := range pool {
		for k := 0; k < in.weight; k++ {
			menu = append(menu, 2*pi, 2*pi+1)
		}
	}
	kinds := make([]int, n)
	for i := range kinds {
		kinds[i] = menu[i%len(menu)]
	}
	rng.Shuffle(n, func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	var mu sync.Mutex
	var wg sync.WaitGroup
	m0 := readMem()
	start := time.Now()
	for i, off := range offsets {
		due := start.Add(time.Duration(off * float64(time.Second)))
		in := &pool[kinds[i]/2]
		req := in.request(serve.Direction(kinds[i] % 2))
		time.Sleep(time.Until(due))
		res.lag = append(res.lag, ms(time.Since(due)))
		res.sent++
		wg.Add(1)
		go func(due time.Time) {
			defer wg.Done()
			err := s.Submit(context.Background(), req)
			lat := ms(time.Since(due))
			var e float64
			if err == nil {
				e, err = in.check(req, tol)
			}
			mu.Lock()
			defer mu.Unlock()
			res.maxErr = math.Max(res.maxErr, e)
			if err != nil {
				res.failed++
				if res.firstErr == nil {
					res.firstErr = err
				}
				return
			}
			res.latency = append(res.latency, lat)
		}(due)
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	res.allocMB, res.gcMs = m0.perOp(readMem(), len(res.latency))
	res.stats = s.Stats()
	return res
}

// runServe runs the serve-guarded workload.
func runServe(o runOpts, rep *report) error {
	pool := servePool(o.seed)
	if o.trace {
		o.setupMin, o.setupBudget = 0, 0 // setup_s is not reported traced
	}
	setups, err := repeatSetup(o, func() (time.Duration, error) {
		s, d, _, err := setupServer(pool)
		if err == nil {
			s.Close()
		}
		return d, err
	})
	if err != nil {
		rep.count(1, 1)
		return err
	}
	s, d, tol, err := setupServer(pool)
	if err != nil {
		rep.count(1, 1)
		return err
	}
	setups = append(setups, d.Seconds())
	rep.count(len(setups)*len(serveShapes), 0)
	budget := o.budget
	if o.trace {
		budget /= 2
	}
	lr := openLoop(s, pool, tol, o.seed, budget)
	s.Close()
	rep.count(lr.sent, lr.failed)
	rep.set("max_rel_err", lr.maxErr)
	if lr.firstErr != nil {
		return lr.firstErr
	}
	if !o.trace {
		rep.set("host_ms_p50", median(lr.latency))
		rep.set("host_ms_p90", quantile(lr.latency, 0.9))
		rep.set("ops_per_s", float64(len(lr.latency))/lr.elapsed.Seconds())
		rep.set("alloc_mb_per_op", lr.allocMB)
		rep.set("setup_s", median(setups))
		rep.set("samples", float64(len(lr.latency)))
		rep.notef("open loop at %.0f req/s offered for %v: %d sent, %d verified; setup_s is the median of %d set-ups",
			serveRate, budget, lr.sent, len(lr.latency), len(setups))
		return nil
	}

	t := lr.stats.Scheduler.Total
	rep.set("sched.mean_batch", t.MeanBatch())
	rep.set("sched.batches", float64(t.Batches))
	rep.set("sched.rejected", float64(t.Rejected))
	rep.set("sched.server_latency_ms_p50", t.Latency.Quantile(0.5)*1e3)
	c := lr.stats.Cache
	rep.set("cache.hit_ratio", float64(c.Hits)/math.Max(1, float64(c.Hits+c.Misses)))
	rep.set("cache.evictions", float64(c.Evictions))
	rep.set("serve.retries", float64(lr.stats.Recovery.Retries))
	var virt float64
	var reqs uint64
	for _, e := range lr.stats.Engines {
		virt += e.VirtualSeconds
		reqs += e.Requests
	}
	rep.set("serve.virt_us_per_req", virt*1e6/math.Max(1, float64(reqs)))
	setIntegrity(rep, lr.stats.Integrity.Totals, max(1, int(reqs)))
	rep.set("gen.lag_ms_p90", quantile(lr.lag, 0.9))
	rep.set("gc.pause_ms_per_op", lr.gcMs)
	rep.set("baseline.serial_fft_ms", 0)

	// Per-layer replay: one resident plan per shape, configured like the
	// server's engines. An op there is one Forward plus one Inverse, so a
	// request of the mix costs half an op, weighted over the shapes.
	shapeReps := make([]*report, len(serveShapes))
	for i, g := range serveShapes {
		shapeReps[i] = newReport()
		if err := planLayers(serveSpec(g), o.seed, o.budget/2/time.Duration(len(serveShapes)), shapeReps[i]); err != nil {
			rep.count(shapeReps[i].attempted, shapeReps[i].failed)
			return err
		}
		rep.count(shapeReps[i].attempted, shapeReps[i].failed)
		rep.notes = append(rep.notes, shapeReps[i].notes...)
	}
	perShape := map[string]bool{ // not additive per op: not halved
		"model.residual": true, "trace.overhead_pct": true, "fft.gflops_host": true,
		"core.plan_build_ms": true, "core.exchanges": true,
	}
	for name := range shapeReps[0].values {
		if _, done := rep.values[name]; done {
			continue
		}
		v, wsum := 0.0, 0
		for i, sr := range shapeReps {
			v += float64(serveWeights[i]) * sr.values[name]
			wsum += serveWeights[i]
		}
		v /= float64(wsum)
		if !perShape[name] {
			v /= 2
		}
		rep.set(name, v)
	}
	rep.set("samples", float64(len(lr.latency)))
	return nil
}
