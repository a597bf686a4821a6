package mpisim

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/machine"
)

// rendezvous is the synchronization point of collectives: every member
// deposits an input and a clock snapshot; the last arrival runs the timing
// computation over all inputs; everyone leaves with its own output. A
// drain phase keeps back-to-back collectives on the same communicator from
// overlapping.
type rendezvous struct {
	mu      sync.Mutex
	cond    *sync.Cond
	size    int
	arrived int
	leaving int
	inputs  []collIn
	outputs []collOut
}

type collIn struct {
	clock float64
	send  []Buf
	val   float64
	buf   Buf
	// port snapshots the rank's injection-port busy-until time; the
	// all-to-all engine gates its network start on it so back-to-back
	// chunked exchanges serialize honestly on the wire.
	port float64
	// Fault-injection effects of the contributing rank for this exchange:
	// factor scales its communication time (degraded links), lost marks its
	// outgoing blocks as dropped in transit.
	factor float64
	lost   bool
	// An all-to-all contribution, indexed by its rank before the rendezvous
	// so the serial cost computation reads only integers: bytes per
	// destination, whether any send block is device-resident, the send
	// total, and the blocks that travel (a payload or a fault mark).
	row    []int
	dev    bool
	total  int
	blocks []routedBuf
}

// routedBuf is one all-to-all block in flight: the sender's clone and the
// rank it travels to.
type routedBuf struct {
	dst int
	buf Buf
}

// inbound points a receiver at one routed block of its exchange.
type inbound struct {
	src int
	buf *Buf
}

type collOut struct {
	clock float64
	recv  []Buf
	val   float64
	buf   Buf
	// port is the new injection-port busy-until time of the receiving rank
	// (all-to-alls only; zero otherwise).
	port float64
	// route lists the routed blocks addressed to the receiving rank, in
	// source order (all-to-alls only).
	route     []inbound
	splitCore *commCore
	splitRank int
}

func newRendezvous(size int) *rendezvous {
	rv := &rendezvous{size: size}
	rv.cond = sync.NewCond(&rv.mu)
	return rv
}

// exchange runs one collective round. compute is executed exactly once, by
// the last arriving rank, over the dense input slice.
func (rv *rendezvous) exchange(w *World, rank int, in collIn, compute func(ins []collIn) []collOut) collOut {
	rv.mu.Lock()
	defer rv.mu.Unlock()
	// A failed world never completes another rendezvous — and a rank that
	// aborted mid-wait left its arrival registered, so re-entering would
	// corrupt the count. Fail fast instead.
	if w.failed.Load() {
		panic(worldAborted{})
	}
	for rv.leaving > 0 {
		if w.failed.Load() {
			panic(worldAborted{})
		}
		rv.cond.Wait()
	}
	if rv.inputs == nil {
		rv.inputs = make([]collIn, rv.size)
	}
	rv.inputs[rank] = in
	rv.arrived++
	if rv.arrived == rv.size {
		rv.outputs = compute(rv.inputs)
		rv.arrived = 0
		rv.inputs = nil
		rv.leaving = rv.size
		rv.cond.Broadcast()
	} else {
		for rv.leaving == 0 {
			if w.failed.Load() {
				panic(worldAborted{})
			}
			rv.cond.Wait()
		}
	}
	out := rv.outputs[rank]
	rv.leaving--
	if rv.leaving == 0 {
		rv.cond.Broadcast()
	}
	return out
}

// abortWake is called by World.abort to unblock rendezvous waiters.
func (rv *rendezvous) abortWake() {
	rv.mu.Lock()
	rv.cond.Broadcast()
	rv.mu.Unlock()
}

// Barrier synchronizes all ranks of the communicator; clocks advance to the
// common release time (max entry + a logarithmic software cost).
func (c *Comm) Barrier() {
	st := c.state()
	start := st.clock
	c.faultEnter("MPI_Barrier")
	m := c.Model()
	out := c.core.rv.exchange(c.core.world, c.rank, collIn{clock: st.clock}, func(ins []collIn) []collOut {
		t0 := maxClock(ins)
		steps := math.Ceil(math.Log2(float64(len(ins))))
		if len(ins) == 1 {
			steps = 0
		}
		t := t0 + steps*(m.HostOverheadColl+m.InterLatency)
		outs := make([]collOut, len(ins))
		for i := range outs {
			outs[i].clock = t
		}
		return outs
	})
	st.clock = c.collClock("MPI_Barrier", start, out.clock)
	c.record("MPI_Barrier", start, st.clock, 0)
}

func maxClock(ins []collIn) float64 {
	t := math.Inf(-1)
	for _, in := range ins {
		if in.clock > t {
			t = in.clock
		}
	}
	return t
}

// Bcast broadcasts root's buffer to every rank (binomial tree timing).
func (c *Comm) Bcast(root int, b Buf) Buf {
	st := c.state()
	start := st.clock
	w := c.core.world
	m := c.Model()
	size := c.Size()
	c.faultEnter("MPI_Bcast")
	in := collIn{clock: st.clock}
	if c.rank == root {
		in.buf = b.clone()
	}
	dev := b.Loc == machine.Device
	out := c.core.rv.exchange(w, c.rank, in, func(ins []collIn) []collOut {
		t0 := maxClock(ins)
		steps := math.Ceil(math.Log2(float64(size)))
		payload := ins[root].buf
		// Tree step cost: one message of the full payload per level; use the
		// worst path (inter-node).
		mc := m.MsgCostOn(payload.Bytes(), w.topo.Path(0, c.WorldRank(root)), w.nodes, dev, w.opts.GPUAware, machine.ClassCollective)
		t := t0 + steps*(mc.PostOverhead+mc.PortTime+mc.Latency) + mc.PreStage + mc.PostStage
		outs := make([]collOut, size)
		for i := range outs {
			outs[i] = collOut{clock: t, buf: payload}
		}
		return outs
	})
	st.clock = c.collClock("MPI_Bcast", start, out.clock)
	c.record("MPI_Bcast", start, st.clock, out.buf.Bytes())
	if c.rank == root {
		return b
	}
	return out.buf.clone()
}

// ReduceOp selects the Allreduce combiner.
type ReduceOp int

const (
	OpSum ReduceOp = iota
	OpMax
	OpMin
)

// Allreduce combines one float64 per rank and returns the result everywhere
// (recursive-doubling timing over 8-byte payloads).
func (c *Comm) Allreduce(v float64, op ReduceOp) float64 {
	st := c.state()
	start := st.clock
	w := c.core.world
	m := c.Model()
	size := c.Size()
	c.faultEnter("MPI_Allreduce")
	out := c.core.rv.exchange(w, c.rank, collIn{clock: st.clock, val: v}, func(ins []collIn) []collOut {
		t0 := maxClock(ins)
		acc := ins[0].val
		for _, in := range ins[1:] {
			switch op {
			case OpSum:
				acc += in.val
			case OpMax:
				acc = math.Max(acc, in.val)
			case OpMin:
				acc = math.Min(acc, in.val)
			}
		}
		steps := math.Ceil(math.Log2(float64(size)))
		t := t0 + steps*(m.HostOverheadColl+m.InterLatency+8/m.NodeInjectionBW)
		outs := make([]collOut, size)
		for i := range outs {
			outs[i] = collOut{clock: t, val: acc}
		}
		return outs
	})
	st.clock = c.collClock("MPI_Allreduce", start, out.clock)
	c.record("MPI_Allreduce", start, st.clock, 8)
	return out.val
}

// Gatherv collects every rank's buffer at root (returned in rank order at
// root; nil elsewhere). Timing: all senders inject their buffers toward the
// root, which drains them through its port sequentially.
func (c *Comm) Gatherv(root int, b Buf) []Buf {
	st := c.state()
	start := st.clock
	w := c.core.world
	m := c.Model()
	size := c.Size()
	c.faultEnter("MPI_Gatherv")
	out := c.core.rv.exchange(w, c.rank, collIn{clock: st.clock, buf: b.clone()}, func(ins []collIn) []collOut {
		t0 := maxClock(ins)
		rootW := c.WorldRank(root)
		t := t0
		recv := make([]Buf, size)
		for r := 0; r < size; r++ {
			recv[r] = ins[r].buf
			if r == root {
				continue
			}
			srcW := c.WorldRank(r)
			mc := m.MsgCostOn(ins[r].buf.Bytes(), w.topo.Path(srcW, rootW), w.nodes, ins[r].buf.Loc == machine.Device, w.opts.GPUAware, machine.ClassCollective)
			t += mc.PostOverhead + mc.PortTime
		}
		t += w.topo.Latency(c.WorldRank((root+1)%size), rootW)
		outs := make([]collOut, size)
		for r := range outs {
			outs[r].clock = t0 + 2*m.HostOverheadColl
			if r == root {
				outs[r].clock = t
				outs[r].recv = recv
			}
		}
		return outs
	})
	st.clock = c.collClock("MPI_Gatherv", start, out.clock)
	c.record("MPI_Gatherv", start, st.clock, b.Bytes())
	return out.recv
}

// Scatterv distributes root's per-rank buffers (len == comm size at root,
// ignored elsewhere); each rank receives its slot.
func (c *Comm) Scatterv(root int, bufs []Buf) Buf {
	st := c.state()
	start := st.clock
	w := c.core.world
	m := c.Model()
	size := c.Size()
	c.faultEnter("MPI_Scatterv")
	in := collIn{clock: st.clock}
	if c.rank == root {
		if len(bufs) != size {
			panic(fmt.Sprintf("mpisim: Scatterv root has %d buffers for size-%d comm", len(bufs), size))
		}
		in.send = make([]Buf, size)
		for i, b := range bufs {
			in.send[i] = b.clone()
		}
	}
	out := c.core.rv.exchange(w, c.rank, in, func(ins []collIn) []collOut {
		t0 := maxClock(ins)
		rootW := c.WorldRank(root)
		outs := make([]collOut, size)
		t := t0
		for r := 0; r < size; r++ {
			outs[r].buf = ins[root].send[r]
			if r == root {
				outs[r].clock = t0
				continue
			}
			dstW := c.WorldRank(r)
			b := ins[root].send[r]
			mc := m.MsgCostOn(b.Bytes(), w.topo.Path(rootW, dstW), w.nodes, b.Loc == machine.Device, w.opts.GPUAware, machine.ClassCollective)
			t += mc.PostOverhead + mc.PortTime
			outs[r].clock = t + mc.Latency
		}
		outs[root].clock = t
		return outs
	})
	st.clock = c.collClock("MPI_Scatterv", start, out.clock)
	c.record("MPI_Scatterv", start, st.clock, out.buf.Bytes())
	if c.rank == root {
		return bufs[root]
	}
	return out.buf.clone()
}

// Alltoall exchanges send[dst] → recv[src] with MPI_Alltoall semantics: all
// blocks are padded to the maximum block size in the communicator (the
// padding cost the paper observes on brick↔pencil reshapes, Figs. 2 and 6),
// in exchange for the most optimized vendor algorithm.
func (c *Comm) Alltoall(send []Buf) []Buf { return c.alltoall(send, alltoallAlgo{}, "MPI_Alltoall") }

// Alltoallv exchanges exact per-pair sizes with the optimized collective
// path (the linear schedule).
func (c *Comm) Alltoallv(send []Buf) []Buf { return c.alltoall(send, linearAlgo{}, "MPI_Alltoallv") }

// Alltoallw models the generalized all-to-all on derived sub-array datatypes
// used by Algorithm 2 (Dalcin et al.): a naive Isend/Irecv loop with high
// per-message setup, and — on SpectrumMPI-like stacks — no GPU-awareness, so
// device buffers stage through PCIe per message.
func (c *Comm) Alltoallw(send []Buf) []Buf { return c.alltoall(send, alltoallwAlgo{}, "MPI_Alltoallw") }

// AlltoallvWith exchanges exact per-pair sizes like Alltoallv, but scheduled
// by the selected algorithm (linear, pairwise exchange, ring streaming, Bruck
// log-step or node-aware). The received bytes are identical for every
// algorithm; only the virtual-time cost differs. AlgoLinear is Alltoallv.
func (c *Comm) AlltoallvWith(send []Buf, a Algo) []Buf {
	return c.alltoall(send, algoImpl(a), "MPI_Alltoallv")
}

// alltoall is every blocking all-to-all: the non-blocking post followed at
// once by its wait, traced as one op-named event from the call's entry.
func (c *Comm) alltoall(send []Buf, impl CollectiveAlgo, op string) []Buf {
	r := c.post(send, impl, op, op)
	return c.wait(&r, r.postedAt)
}

// post runs the rendezvous and cost computation of one all-to-all under the
// given cost profile. The engine handles everything the profile does not
// model: PCIe staging for non-GPU-aware device buffers, the self block's
// device copy, injection-port gating, and the fault effects (degrade factors
// travel to the profile, dropped blocks push receivers' completions to +Inf).
// The caller's clock moves only by an injected stall; the returned request
// carries the completion time its wait adopts. Every profile follows one start rule:
// staging starts at the rank's own arrival, the network at the later of the
// staged arrival, the injection port freeing up and — for synchronized
// profiles — the group's last arrival. A degrade factor slows the network
// schedule and the self copy, never the staging.
//
// Host cost scales with the nonempty blocks, not with the square of the
// group: each rank indexes its own send slice before the rendezvous and
// clones only the blocks that travel, the serial callback reads integers
// alone (byte rows, flags, totals) and buckets the routed blocks by
// destination with one counting sort, and each rank fills its own receive
// slice after it wakes. An empty received block is the zero Buf unless its
// sender marked it (Corrupt or a silent corruption), in which case it is
// the sender's marked block.
func (c *Comm) post(send []Buf, impl CollectiveAlgo, op, waitName string) CollRequest {
	size := c.Size()
	if len(send) != size {
		panic(fmt.Sprintf("mpisim: %s send slice has %d entries for size-%d comm", op, len(send), size))
	}
	st := c.state()
	start := st.clock
	w := c.core.world
	m := c.Model()
	// MPI_Alltoallw stages device buffers per message inside its profile.
	_, selfStaged := impl.(alltoallwAlgo)

	eff := c.faultEnter(op)
	c.chargeSendChecksums(send)
	in := collIn{clock: st.clock, port: st.portFreeAt, row: make([]int, size), lost: eff.Drop}
	if eff.Factor > 1 {
		in.factor = eff.Factor
	}
	// A block travels when it carries a payload or a fault mark; fault
	// effects mark every off-diagonal block, empty ones included. Counting
	// first sizes the compact list exactly.
	marked := eff.Corrupt || eff.Silent > 0
	travels := func(i, bytes int) bool {
		return bytes > 0 || send[i].Corrupt || send[i].silent > 0 || (marked && i != c.rank)
	}
	nnz := 0
	for i := range send {
		b := &send[i]
		by := b.bytes()
		in.row[i] = by
		in.total += by
		if b.Loc == machine.Device {
			in.dev = true
		}
		if travels(i, by) {
			nnz++
		}
	}
	in.blocks = make([]routedBuf, 0, nnz)
	for i := range send {
		if !travels(i, in.row[i]) {
			continue
		}
		blk := routedBuf{dst: i, buf: send[i].clone()}
		if i != c.rank {
			if eff.Corrupt {
				blk.buf.Corrupt = true
			}
			if eff.Silent > 0 {
				blk.buf.silent = eff.Silent
				blk.buf.flipSeed = mixSeed(eff.SilentSeed, i)
			}
		}
		in.blocks = append(in.blocks, blk)
	}
	out := c.core.rv.exchange(w, c.rank, in, func(ins []collIn) []collOut {
		// Synchronized schedules (lock-step rounds) gate every rank on the
		// group's last entry; unsynchronized ones start each rank at its own
		// arrival and let receiver-side data dependencies carry the skew.
		t0 := math.Inf(-1)
		if impl.Synchronized() {
			t0 = maxClock(ins)
		}
		// Bucket the routed blocks by destination: one counting sort over
		// the blocks that travel, never over the size² matrix.
		first := make([]int, size+1)
		for s := range ins {
			for _, blk := range ins[s].blocks {
				first[blk.dst+1]++
			}
		}
		for d := 0; d < size; d++ {
			first[d+1] += first[d]
		}
		routes := make([]inbound, first[size])
		next := make([]int, size)
		copy(next, first)
		for s := range ins {
			blks := ins[s].blocks
			for i := range blks {
				d := blks[i].dst
				routes[next[d]] = inbound{src: s, buf: &blks[i].buf}
				next[d]++
			}
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
			ex.Bytes[r] = ins[r].row
			// Bulk staging: heFFTe's -no-gpu-aware path copies the whole
			// packed buffer to the host once, runs the host collective, and
			// copies the result back. Profiles that stage per message see
			// the raw buffer location instead.
			stage := 0.0
			staged := ins[r].dev && !w.opts.GPUAware && !selfStaged
			if staged {
				totalRecv := 0
				for _, rt := range routes[first[r]:first[r+1]] {
					totalRecv += ins[rt.src].row[r]
				}
				stage = 2*m.StagingOverhead +
					(1-m.StagingOverlap)*(float64(ins[r].total)/m.PCIeBW+float64(totalRecv)/m.PCIeBW)
			}
			ex.Dev[r] = ins[r].dev && !staged
			// Staging copies ride PCIe, not the NIC: they start at local
			// arrival and overlap whatever transfer still occupies the
			// injection port — which is how a chunked pipeline hides the
			// host↔device hops of chunk k+1 under the wire time of chunk k.
			ex.Start[r] = math.Max(math.Max(t0, ins[r].clock+stage), ins[r].port)
		}
		comp := impl.Complete(ex)
		outs := make([]collOut, size)
		for r := range ins {
			t := comp[r]
			if by := ins[r].row[r]; by > 0 {
				// Self block: a device-local copy.
				t += float64(by) * 2 / m.GPU.MemBW * ex.factor(r)
			}
			outs[r] = collOut{clock: t, route: routes[first[r]:first[r+1]], port: comp[r]}
		}
		// Dropped contributions: every rank expecting a nonzero block from a
		// lost sender waits forever — its completion moves past any finite
		// bound and surfaces as ErrExchangeTimeout at the wait.
		for r := range ins {
			if !ins[r].lost {
				continue
			}
			for dst, by := range ins[r].row {
				if dst != r && by > 0 {
					outs[dst].clock = math.Inf(1)
				}
			}
		}
		return outs
	})
	if out.port > st.portFreeAt {
		st.portFreeAt = out.port
	}
	recv := make([]Buf, size)
	for _, rt := range out.route {
		recv[rt.src] = *rt.buf
	}
	return CollRequest{comm: c, postedAt: start, completeAt: out.clock, recv: recv, bytes: in.total, op: op, waitName: waitName}
}

// checkCorrupt raises ErrMessageCorrupt for any off-diagonal received block
// marked corrupted in transit (modeling transport checksums).
func (c *Comm) checkCorrupt(recv []Buf, op string) {
	for s := range recv {
		if recv[s].Corrupt && s != c.rank {
			c.raiseFault(fmt.Errorf("mpisim: %w: rank %d: %s block from rank %d failed verification",
				ErrMessageCorrupt, c.WorldRank(c.rank), op, c.WorldRank(s)))
		}
	}
}

// Split partitions the communicator like MPI_Comm_split: ranks with the same
// color form a new communicator, ordered by (key, rank). Ranks passing a
// negative color receive nil.
func (c *Comm) Split(color, key int) *Comm {
	type entry struct {
		color, key, rank int
	}
	st := c.state()
	w := c.core.world
	// The color travels in the val field and the key in the phantom buffer's
	// element count.
	in := collIn{clock: st.clock, val: float64(color), buf: Buf{N: key}}
	out := c.core.rv.exchange(w, c.rank, in, func(ins []collIn) []collOut {
		t0 := maxClock(ins)
		// Group by color.
		groups := map[int][]entry{}
		for r, inp := range ins {
			col := int(inp.val)
			if col < 0 {
				continue
			}
			groups[col] = append(groups[col], entry{color: col, key: inp.buf.N, rank: r})
		}
		cores := map[int]*commCore{}
		newRank := make([]int, len(ins))
		for col, es := range groups {
			sort.Slice(es, func(i, j int) bool {
				if es[i].key != es[j].key {
					return es[i].key < es[j].key
				}
				return es[i].rank < es[j].rank
			})
			worldRanks := make([]int, len(es))
			for i, e := range es {
				worldRanks[i] = c.WorldRank(e.rank)
				newRank[e.rank] = i
			}
			cores[col] = w.newComm(worldRanks)
		}
		outs := make([]collOut, len(ins))
		for r, inp := range ins {
			col := int(inp.val)
			outs[r].clock = t0 + 2*c.Model().HostOverheadColl
			if col >= 0 {
				outs[r].splitCore = cores[col]
				outs[r].splitRank = newRank[r]
			}
		}
		return outs
	})
	st.clock = out.clock
	if out.splitCore == nil {
		return nil
	}
	return &Comm{core: out.splitCore, rank: out.splitRank}
}

// Dup returns a communicator with the same group but separate matching
// space (a fresh context id), as MPI_Comm_dup.
func (c *Comm) Dup() *Comm {
	return c.Split(0, c.rank)
}
