package mpisim

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/faults"
	"repro/internal/machine"
)

// postDense is the reference all-to-all engine: every rank clones its whole
// send row, and the serial rendezvous callback reads all size² blocks to
// price the exchange and hands every rank a full receive row. The sparse
// engine in post must match it bit for bit in virtual time and block for
// block in what it delivers.
func (c *Comm) postDense(send []Buf, impl CollectiveAlgo, op, waitName string) CollRequest {
	size := c.Size()
	st := c.state()
	start := st.clock
	w := c.core.world
	m := c.Model()
	_, selfStaged := impl.(alltoallwAlgo)

	eff := c.faultEnter(op)
	c.chargeSendChecksums(send)
	in := collIn{clock: st.clock, port: st.portFreeAt, send: make([]Buf, size), lost: eff.Drop}
	if eff.Factor > 1 {
		in.factor = eff.Factor
	}
	total := 0
	for i, b := range send {
		in.send[i] = b.clone()
		total += b.Bytes()
		if i == c.rank {
			continue
		}
		if eff.Corrupt {
			in.send[i].Corrupt = true
		}
		if eff.Silent > 0 {
			in.send[i].silent = eff.Silent
			in.send[i].flipSeed = mixSeed(eff.SilentSeed, i)
		}
	}
	out := c.core.rv.exchange(w, c.rank, in, func(ins []collIn) []collOut {
		t0 := math.Inf(-1)
		if impl.Synchronized() {
			t0 = maxClock(ins)
		}
		ex := &Exchange{
			Size:     size,
			Bytes:    make([][]int, size),
			Dev:      make([]bool, size),
			Factor:   make([]float64, size),
			Start:    make([]float64, size),
			Ranks:    make([]int, size),
			Nodes:    w.nodes,
			Topo:     w.topo,
			M:        m,
			gpuAware: w.opts.GPUAware,
		}
		for r := range ins {
			ex.Ranks[r] = c.WorldRank(r)
			ex.Factor[r] = ins[r].factor
			row := make([]int, size)
			dev := false
			var totalSend, totalRecv int
			for d, b := range ins[r].send {
				if b.Loc == machine.Device {
					dev = true
				}
				row[d] = b.Bytes()
				totalSend += b.Bytes()
			}
			for s := range ins {
				totalRecv += ins[s].send[r].Bytes()
			}
			ex.Bytes[r] = row
			stage := 0.0
			staged := dev && !w.opts.GPUAware && !selfStaged
			if staged {
				stage = 2*m.StagingOverhead +
					(1-m.StagingOverlap)*(float64(totalSend)/m.PCIeBW+float64(totalRecv)/m.PCIeBW)
			}
			ex.Dev[r] = dev && !staged
			ex.Start[r] = math.Max(math.Max(t0, ins[r].clock+stage), ins[r].port)
		}
		comp := impl.Complete(ex)
		outs := make([]collOut, size)
		for r := range ins {
			t := comp[r]
			if by := ins[r].send[r].Bytes(); by > 0 {
				t += float64(by) * 2 / m.GPU.MemBW * ex.factor(r)
			}
			recv := make([]Buf, size)
			for s := range ins {
				recv[s] = ins[s].send[r]
			}
			outs[r] = collOut{clock: t, recv: recv, port: comp[r]}
		}
		for r := range ins {
			if !ins[r].lost {
				continue
			}
			for dst := 0; dst < size; dst++ {
				if dst == r || ins[r].send[dst].Bytes() == 0 {
					continue
				}
				outs[dst].clock = math.Inf(1)
			}
		}
		return outs
	})
	if out.port > st.portFreeAt {
		st.portFreeAt = out.port
	}
	return CollRequest{comm: c, postedAt: start, completeAt: out.clock, recv: out.recv, bytes: total, op: op, waitName: waitName}
}

// engineProfiles is every cost profile the all-to-all engine runs.
func engineProfiles() []CollectiveAlgo {
	var ps []CollectiveAlgo
	for _, a := range Algos() {
		ps = append(ps, algoImpl(a))
	}
	return append(ps, alltoallAlgo{}, alltoallwAlgo{})
}

// sparseRow builds rank r's send row of one random exchange: each block is
// nonempty with the given probability, payloads vary in kind (complex, real,
// phantom, moved) and location, and empty blocks vary in what they carry
// (nil or zero-length slices, device or host, a caller-set Corrupt mark).
func sparseRow(rng *rand.Rand, r, size int, density float64) []Buf {
	send := make([]Buf, size)
	devRank := rng.Intn(4) != 0
	for d := range send {
		loc := machine.Host
		if devRank && rng.Intn(8) != 0 {
			loc = machine.Device
		}
		if rng.Float64() >= density {
			b := Buf{Loc: loc}
			switch rng.Intn(4) {
			case 0:
				b.Data = []complex128{}
			case 1:
				b.Real = []float64{}
			}
			b.Corrupt = rng.Intn(64) == 0
			send[d] = b
			continue
		}
		n := 1 + rng.Intn(6)
		b := Buf{Loc: loc, Move: rng.Intn(2) == 0, Wire: WirePrecision(rng.Intn(3))}
		switch rng.Intn(3) {
		case 0:
			b.Data = make([]complex128, n)
			for i := range b.Data {
				b.Data[i] = complex(float64(r*100000+d*10+i), float64(rng.Intn(100)))
			}
			b.SumRe, b.Summed = float64(n), true
		case 1:
			b.Real = make([]float64, n)
			for i := range b.Real {
				b.Real[i] = float64(r*100000 + d*10 + i)
			}
		default:
			b.N, b.PhantomReal = n<<rng.Intn(12), rng.Intn(2) == 0
		}
		send[d] = b
	}
	return send
}

// postedView is what one rank observes from one posted exchange.
type postedView struct {
	complete, port float64
	recv           []Buf
}

// runEngine runs a fixed sequence of random exchanges — every profile, with
// and without arrival skew, at densities from 1% to 100% — on a fresh world
// and returns every rank's view of every post. dense selects the reference
// engine.
func runEngine(t *testing.T, size int, opts Options, seed int64, dense bool) [][]postedView {
	t.Helper()
	profiles := engineProfiles()
	densities := []float64{0.01, 0.05, 0.2, 0.6, 1}
	views := make([][]postedView, size)
	w := NewWorld(machine.Summit(), size, opts)
	res := w.Run(func(c *Comm) {
		r := c.Rank()
		k := 0
		for _, skewed := range []bool{false, true} {
			for pi, impl := range profiles {
				rng := rand.New(rand.NewSource(seed*1_000_003 + int64(k)*7919 + int64(r)))
				send := sparseRow(rng, r, size, densities[(pi+k)%len(densities)])
				if skewed {
					c.Advance(float64((r*37+k)%11) * 3e-6)
				} else {
					c.Barrier()
				}
				var req CollRequest
				if dense {
					req = c.postDense(send, impl, "MPI_Alltoallv", "MPI_Alltoallv")
				} else {
					req = c.post(send, impl, "MPI_Alltoallv", "MPI_Alltoallv")
				}
				views[r] = append(views[r], postedView{req.completeAt, c.state().portFreeAt, req.recv})
				k++
			}
		}
	})
	if res.Err != nil {
		t.Fatalf("size %d: %v", size, res.Err)
	}
	return views
}

// TestSparseEngineMatchesDense is the engine equivalence property: on random
// sparse patterns, for every profile, GPU-aware and staged, with and without
// arrival skew, and under every fault effect an exchange applies (degrade,
// drop, detected and silent corruption), the sparse engine gives every rank
// bit-equal completion and port clocks, delivers nonempty blocks field for
// field, and delivers empty blocks with zero bytes and the reference's fault
// marks.
func TestSparseEngineMatchesDense(t *testing.T) {
	sizes := []int{1, 2, 7, 64, 300}
	if testing.Short() {
		sizes = sizes[:4]
	}
	n := 2 * len(engineProfiles()) // exchanges per run (Barriers excluded)
	faultPlans := map[string]func(size int) *faults.Plan{
		"none": func(int) *faults.Plan { return nil },
		"degrade": func(size int) *faults.Plan {
			return &faults.Plan{Events: []faults.Event{{Kind: faults.Degrade, Rank: size - 1, Op: 0, Factor: 3, Count: 4 * n}}}
		},
		"drop":    func(size int) *faults.Plan { return everyOp(faults.Drop, size/2, 2*n) },
		"corrupt": func(size int) *faults.Plan { return everyOp(faults.Corrupt, 0, 2*n) },
		"silent":  func(size int) *faults.Plan { return everyOp(faults.CorruptSilent, size-1, 2*n) },
	}
	for _, size := range sizes {
		for _, aware := range []bool{true, false} {
			for name, mk := range faultPlans {
				if size == 300 && raceEnabled && name != "none" {
					// The full 300-rank cross takes minutes under the race
					// detector; the plain test run covers it.
					continue
				}
				t.Run(fmt.Sprintf("p%d/aware=%v/%s", size, aware, name), func(t *testing.T) {
					opts := Options{GPUAware: aware, Faults: mk(size)}
					seed := int64(size*10 + len(name))
					want := runEngine(t, size, opts, seed, true)
					got := runEngine(t, size, opts, seed, false)
					for r := range want {
						for k := range want[r] {
							compareViews(t, r, k, want[r][k], got[r][k])
						}
					}
				})
			}
		}
	}
}

// everyOp schedules a one-shot fault on each of the victim's first ops.
func everyOp(kind faults.Kind, victim, ops int) *faults.Plan {
	p := &faults.Plan{}
	for op := 0; op < ops; op++ {
		p.Events = append(p.Events, faults.Event{Kind: kind, Rank: victim, Op: op, Count: 2})
	}
	return p
}

func compareViews(t *testing.T, r, k int, want, got postedView) {
	t.Helper()
	if math.Float64bits(want.complete) != math.Float64bits(got.complete) ||
		math.Float64bits(want.port) != math.Float64bits(got.port) {
		t.Fatalf("rank %d exchange %d: completion %v port %v, reference %v port %v",
			r, k, got.complete, got.port, want.complete, want.port)
	}
	if len(got.recv) != len(want.recv) {
		t.Fatalf("rank %d exchange %d: %d received blocks, reference %d", r, k, len(got.recv), len(want.recv))
	}
	for s := range want.recv {
		wb, gb := want.recv[s], got.recv[s]
		if wb.Bytes() > 0 {
			if !reflect.DeepEqual(wb, gb) {
				t.Fatalf("rank %d exchange %d block from %d: got %+v, reference %+v", r, k, s, gb, wb)
			}
			continue
		}
		if gb.Bytes() != 0 || gb.Corrupt != wb.Corrupt || gb.silent != wb.silent || gb.flipSeed != wb.flipSeed {
			t.Fatalf("rank %d exchange %d empty block from %d: got %+v, reference %+v", r, k, s, gb, wb)
		}
	}
}

// sparseSend is a reshape-like send row: rank r ships a device block to
// each of `peers` ranks spread across the communicator, itself included,
// and leaves every other block empty.
func sparseSend(r, size, peers int) []Buf {
	send := make([]Buf, size)
	for d := range send {
		send[d] = Buf{Loc: machine.Device}
	}
	for j := 0; j < peers; j++ {
		send[(r+j*(size/peers+1))%size] = Buf{N: 1 << 10, Loc: machine.Device}
	}
	return send
}

// TestSparseAlltoallAllocs bounds the engine's per-call allocation on a
// sparse exchange: with the caller's send slice reused, a rank allocates its
// dense receive slice plus O(peers) — not a clone of its send row on top.
func TestSparseAlltoallAllocs(t *testing.T) {
	const size, peers, calls = 384, 8, 100
	run := func(n int) uint64 {
		w := NewWorld(machine.Summit(), size, Options{GPUAware: true})
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		res := w.Run(func(c *Comm) {
			send := sparseSend(c.Rank(), size, peers)
			for i := 0; i < n; i++ {
				c.AlltoallvWith(send, AlgoLinear)
			}
		})
		runtime.ReadMemStats(&after)
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	base := run(0)
	total := run(calls)
	perCall := float64(total-min(base, total)) / float64(calls*size)
	bound := 1.5 * size * float64(unsafe.Sizeof(Buf{}))
	t.Logf("%.0f B per rank per call (bound %.0f B)", perCall, bound)
	if perCall > bound {
		t.Errorf("sparse AlltoallvWith allocates %.0f B per rank per call, want <= %.0f B", perCall, bound)
	}
}
