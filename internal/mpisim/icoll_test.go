package mpisim

import (
	"fmt"
	"testing"

	"repro/internal/faults"
	"repro/internal/machine"
)

func TestIalltoallvDeliversData(t *testing.T) {
	const n = 4
	w := NewWorld(machine.Summit(), n, Options{GPUAware: true})
	recvd := make([][]complex128, n)
	w.Run(func(c *Comm) {
		send := make([]Buf, n)
		for d := 0; d < n; d++ {
			send[d] = hostBuf(complex(float64(c.Rank()*10+d), 0))
		}
		req := c.IalltoallvWith(send, AlgoLinear)
		recv := c.WaitColl(req)
		row := make([]complex128, n)
		for s := 0; s < n; s++ {
			row[s] = recv[s].Data[0]
		}
		recvd[c.Rank()] = row
	})
	for r := 0; r < n; r++ {
		for s := 0; s < n; s++ {
			if want := complex(float64(s*10+r), 0); recvd[r][s] != want {
				t.Errorf("rank %d from %d: got %v want %v", r, s, recvd[r][s], want)
			}
		}
	}
}

// TestIalltoallvOverlapsCompute: compute performed between post and wait
// must hide behind the exchange, so the async version beats blocking
// Alltoallv + compute — the overlap effect of refs [28]/[34]/[35].
func TestIalltoallvOverlapsCompute(t *testing.T) {
	const n = 12
	const compute = 2e-3
	run := func(async bool) float64 {
		w := NewWorld(machine.Summit(), n, Options{GPUAware: true})
		res := w.Run(func(c *Comm) {
			send := make([]Buf, n)
			for d := range send {
				send[d] = Buf{N: 1 << 16, Loc: machine.Device}
			}
			if async {
				req := c.IalltoallvWith(send, AlgoLinear)
				c.Advance(compute)
				c.WaitColl(req)
			} else {
				c.Alltoallv(send)
				c.Advance(compute)
			}
		})
		return res.MaxClock
	}
	async, blocking := run(true), run(false)
	if async >= blocking {
		t.Errorf("async %g should beat blocking %g via overlap", async, blocking)
	}
	// With compute shorter than the exchange, the async time should be close
	// to the exchange alone.
	exch := run(true) - 0 // async already ≈ exchange when compute hides fully
	if blocking-async < compute*0.9 {
		t.Errorf("overlap hid only %g of %g compute", blocking-async, compute)
	}
	_ = exch
}

// TestIalltoallvMatchesBlockingCompletion: blocking calls and post+wait run
// one engine, so on every rank the wait lands on the blocking call's virtual
// instant — or on the end of the posting overhead when that is later — for
// every schedule, GPU-aware and staged buffers, synchronized and skewed
// arrivals, clean and degraded links. Alltoallv is AlgoLinear exactly.
func TestIalltoallvMatchesBlockingCompletion(t *testing.T) {
	const n = 6
	const skewStep = 20e-6
	for _, a := range Algos() {
		for _, aware := range []bool{true, false} {
			for _, skew := range []bool{false, true} {
				for _, degraded := range []bool{false, true} {
					name := fmt.Sprintf("%v/gpu-aware=%v/skew=%v/degraded=%v", a, aware, skew, degraded)
					t.Run(name, func(t *testing.T) {
						opts := Options{GPUAware: aware}
						if degraded {
							opts.Faults = &faults.Plan{Events: []faults.Event{{Kind: faults.Degrade, Rank: 2, Factor: 3}}}
						}
						// run returns each rank's clock at the call and after it.
						run := func(call func(c *Comm, send []Buf)) (posted, done []float64) {
							posted = make([]float64, n)
							w := NewWorld(machine.Summit(), n, opts)
							res := w.Run(func(c *Comm) {
								send := make([]Buf, n)
								for d := range send {
									send[d] = Buf{N: 4096 + 17*c.Rank(), Loc: machine.Device}
								}
								if skew {
									c.Advance(skewStep * float64((c.Rank()*5)%n))
								}
								posted[c.Rank()] = c.Clock()
								call(c, send)
							})
							if res.Err != nil {
								t.Fatal(res.Err)
							}
							return posted, res.Clocks
						}
						_, blocking := run(func(c *Comm, send []Buf) { c.AlltoallvWith(send, a) })
						posted, async := run(func(c *Comm, send []Buf) { c.WaitColl(c.IalltoallvWith(send, a)) })
						post := machine.Summit().HostOverheadColl
						for r := range async {
							want := max(blocking[r], posted[r]+post)
							if async[r] != want {
								t.Errorf("rank %d: post+wait completes at %v, blocking at %v (posted %v)", r, async[r], blocking[r], posted[r])
							}
						}
						if a != AlgoLinear {
							return
						}
						_, plain := run(func(c *Comm, send []Buf) { c.Alltoallv(send) })
						for r := range plain {
							if plain[r] != blocking[r] {
								t.Errorf("rank %d: Alltoallv completes at %v, AlltoallvWith(AlgoLinear) at %v", r, plain[r], blocking[r])
							}
						}
					})
				}
			}
		}
	}
}

func TestWaitCollPanicsOnReuse(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic from Run propagating the rank panic")
		}
	}()
	w := NewWorld(machine.Summit(), 1, Options{})
	w.Run(func(c *Comm) {
		req := c.IalltoallvWith([]Buf{{N: 1}}, AlgoLinear)
		c.WaitColl(req)
		c.WaitColl(req)
	})
}

func TestGathervCollectsAtRoot(t *testing.T) {
	const n = 5
	w := NewWorld(machine.Summit(), n, Options{GPUAware: true})
	var got []complex128
	w.Run(func(c *Comm) {
		parts := c.Gatherv(2, hostBuf(complex(float64(c.Rank()), 0)))
		if c.Rank() == 2 {
			for _, p := range parts {
				got = append(got, p.Data[0])
			}
		} else if parts != nil {
			panic("non-root got data")
		}
	})
	for i := 0; i < n; i++ {
		if got[i] != complex(float64(i), 0) {
			t.Errorf("root gathered %v at %d", got[i], i)
		}
	}
}

func TestScattervDistributesFromRoot(t *testing.T) {
	const n = 4
	w := NewWorld(machine.Summit(), n, Options{GPUAware: true})
	got := make([]complex128, n)
	w.Run(func(c *Comm) {
		var bufs []Buf
		if c.Rank() == 0 {
			bufs = make([]Buf, n)
			for i := range bufs {
				bufs[i] = hostBuf(complex(float64(100+i), 0))
			}
		}
		b := c.Scatterv(0, bufs)
		got[c.Rank()] = b.Data[0]
	})
	for i := 0; i < n; i++ {
		if got[i] != complex(float64(100+i), 0) {
			t.Errorf("rank %d got %v", i, got[i])
		}
	}
}

func TestRealBufBytes(t *testing.T) {
	rb := Buf{Real: []float64{1, 2, 3}}
	if rb.Bytes() != 24 || rb.Elems() != 3 || rb.Phantom() {
		t.Errorf("real buf: bytes=%d elems=%d", rb.Bytes(), rb.Elems())
	}
	pr := Buf{N: 10, PhantomReal: true}
	if pr.Bytes() != 80 || !pr.Phantom() {
		t.Errorf("phantom real buf: bytes=%d", pr.Bytes())
	}
	// Clones are deep.
	cl := rb.clone()
	cl.Real[0] = -1
	if rb.Real[0] != 1 {
		t.Error("clone aliases the original")
	}
}
