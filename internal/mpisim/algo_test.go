package mpisim

import (
	"math/rand"
	"testing"

	"repro/internal/machine"
)

// randomSendMatrix builds a deterministic non-uniform payload matrix:
// send[r][d] holds distinct values and block sizes vary per pair, including
// empty blocks — the boxed-reshape shape the scheduled algorithms must route
// exactly like the legacy linear path.
func randomSendMatrix(rng *rand.Rand, size int) [][][]complex128 {
	data := make([][][]complex128, size)
	for r := 0; r < size; r++ {
		data[r] = make([][]complex128, size)
		for d := 0; d < size; d++ {
			n := rng.Intn(7) // 0..6 elements; 0 exercises empty blocks
			block := make([]complex128, n)
			for i := range block {
				block[i] = complex(float64(r*1000+d*10+i), float64(rng.Intn(100)))
			}
			data[r][d] = block
		}
	}
	return data
}

// runExchange executes one AlltoallvWith (or post+wait when async) on a
// fresh world and returns every rank's received blocks.
func runExchange(t *testing.T, size int, seed int64, a Algo, async bool) [][][]complex128 {
	t.Helper()
	data := randomSendMatrix(rand.New(rand.NewSource(seed)), size)
	got := make([][][]complex128, size)
	w := NewWorld(machine.Summit(), size, Options{GPUAware: true})
	res := w.Run(func(c *Comm) {
		r := c.Rank()
		send := make([]Buf, size)
		for d := 0; d < size; d++ {
			send[d] = Buf{Data: append([]complex128(nil), data[r][d]...), Loc: machine.Device}
		}
		var recv []Buf
		if async {
			recv = c.WaitColl(c.IalltoallvWith(send, a))
		} else {
			recv = c.AlltoallvWith(send, a)
		}
		rows := make([][]complex128, size)
		for s := 0; s < size; s++ {
			rows[s] = recv[s].Data
		}
		got[r] = rows
	})
	if res.Err != nil {
		t.Fatalf("size=%d algo=%v: %v", size, a, res.Err)
	}
	// Every schedule must deliver exactly the transposed matrix.
	for r := 0; r < size; r++ {
		for s := 0; s < size; s++ {
			want, have := data[s][r], got[r][s]
			if len(want) != len(have) {
				t.Fatalf("size=%d algo=%v rank %d from %d: got %d elems, want %d",
					size, a, r, s, len(have), len(want))
			}
			for i := range want {
				if want[i] != have[i] {
					t.Fatalf("size=%d algo=%v rank %d from %d elem %d: got %v want %v",
						size, a, r, s, i, have[i], want[i])
				}
			}
		}
	}
	return got
}

// TestAlltoallvWithBitIdentical: every schedule routes random non-uniform
// exchanges (empty blocks included, 1-rank edge case included) bit-identically
// to the legacy linear path, blocking and non-blocking alike.
func TestAlltoallvWithBitIdentical(t *testing.T) {
	for _, size := range []int{1, 5, 12} {
		for _, a := range Algos() {
			for _, async := range []bool{false, true} {
				runExchange(t, size, int64(size)*7+int64(a), a, async)
			}
		}
	}
}

// TestAlltoallvWithDeterministic: the virtual completion time of each
// schedule is a pure function of the exchange — identical across runs.
func TestAlltoallvWithDeterministic(t *testing.T) {
	clock := func(a Algo) float64 {
		data := randomSendMatrix(rand.New(rand.NewSource(99)), 9)
		w := NewWorld(machine.Summit(), 9, Options{GPUAware: true})
		res := w.Run(func(c *Comm) {
			send := make([]Buf, 9)
			for d := 0; d < 9; d++ {
				send[d] = Buf{Data: append([]complex128(nil), data[c.Rank()][d]...), Loc: machine.Device}
			}
			c.AlltoallvWith(send, a)
		})
		if res.Err != nil {
			t.Fatalf("algo %v: %v", a, res.Err)
		}
		return res.MaxClock
	}
	for _, a := range Algos() {
		c1, c2 := clock(a), clock(a)
		if c1 != c2 {
			t.Errorf("algo %v: clocks differ across runs: %v vs %v", a, c1, c2)
		}
		if c1 <= 0 {
			t.Errorf("algo %v: non-positive completion clock %v", a, c1)
		}
	}
}

// TestAlltoallvWithSchedulesDiffer: the schedules are the same exchange at
// different virtual-time costs — at a bandwidth-bound shape the scheduled
// algorithms must not all collapse onto the linear clock.
func TestAlltoallvWithSchedulesDiffer(t *testing.T) {
	clocks := map[Algo]float64{}
	for _, a := range Algos() {
		w := NewWorld(machine.Summit(), 12, Options{GPUAware: true})
		res := w.Run(func(c *Comm) {
			send := make([]Buf, 12)
			for d := range send {
				send[d] = Buf{N: 1 << 14, Loc: machine.Device}
			}
			c.AlltoallvWith(send, a)
		})
		if res.Err != nil {
			t.Fatalf("algo %v: %v", a, res.Err)
		}
		clocks[a] = res.MaxClock
	}
	if clocks[AlgoRing] >= clocks[AlgoLinear] {
		t.Errorf("ring (%v) should beat linear (%v) on a dense device exchange",
			clocks[AlgoRing], clocks[AlgoLinear])
	}
	if clocks[AlgoBruck] == clocks[AlgoPairwise] {
		t.Errorf("bruck and pairwise coincide (%v): schedules are not being applied", clocks[AlgoBruck])
	}
}

// BenchmarkExchange runs one dense device-resident exchange per iteration
// through every cost profile of the engine: each selectable schedule, plus
// MPI_Alltoall's padded loop and MPI_Alltoallw's datatype loop.
func BenchmarkExchange(b *testing.B) {
	type profile struct {
		name string
		call func(c *Comm, send []Buf)
	}
	var profiles []profile
	for _, a := range Algos() {
		profiles = append(profiles, profile{a.String(), func(c *Comm, send []Buf) { c.AlltoallvWith(send, a) }})
	}
	profiles = append(profiles,
		profile{"alltoall", func(c *Comm, send []Buf) { c.Alltoall(send) }},
		profile{"alltoallw", func(c *Comm, send []Buf) { c.Alltoallw(send) }})
	for _, pr := range profiles {
		b.Run(pr.name, func(b *testing.B) {
			w := NewWorld(machine.Summit(), 12, Options{GPUAware: true})
			res := w.Run(func(c *Comm) {
				send := make([]Buf, 12)
				for d := range send {
					send[d] = Buf{N: 1 << 12, Loc: machine.Device}
				}
				if c.Rank() == 0 {
					b.ResetTimer()
				}
				for i := 0; i < b.N; i++ {
					pr.call(c, send)
				}
			})
			if res.Err != nil {
				b.Fatal(res.Err)
			}
		})
	}
	// Paper-scale sparse exchange: 768 ranks, 8 peers each — the shape of
	// the brick↔pencil reshapes of Table III, where host cost must follow the
	// nonempty blocks rather than the 768² matrix.
	for _, a := range []Algo{AlgoRing, AlgoNodeAware} {
		b.Run("sparse768/"+a.String(), func(b *testing.B) {
			b.ReportAllocs()
			const size = 768
			w := NewWorld(machine.Summit(), size, Options{GPUAware: true})
			res := w.Run(func(c *Comm) {
				send := sparseSend(c.Rank(), size, 8)
				if c.Rank() == 0 {
					b.ResetTimer()
				}
				for i := 0; i < b.N; i++ {
					c.AlltoallvWith(send, a)
				}
			})
			if res.Err != nil {
				b.Fatal(res.Err)
			}
		})
	}
}
