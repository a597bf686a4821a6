package core

import (
	"fmt"

	"repro/internal/gpu"
	"repro/internal/machine"
	"repro/internal/mpisim"
	"repro/internal/tensor"
)

// reshapePlan is one data transfer phase of Algorithm 1: moving the
// distributed array from one set of per-rank boxes to another. Ranks that
// hold no data on either side are excluded from the exchange group entirely
// (this is what makes FFT grid shrinking pay off: idle ranks cost nothing).
type reshapePlan struct {
	label string
	tag   int

	// interior marks a reshape strictly between compute stages: its payloads
	// are plan-internal staging data, so it is eligible for wire compression
	// (see wire.go). Input/output reshapes move caller data and always ship
	// full precision.
	interior bool
	// real marks a reshape of the real segment of an R2C pipeline: it moves
	// the fields' float64 values, at 8 bytes per element.
	real bool

	from, to tensor.Box3 // this rank's boxes

	// group is the subcommunicator of ranks touching this exchange; nil when
	// this rank is not involved.
	group *mpisim.Comm
	// members maps group rank → parent comm rank (sorted ascending).
	members     []int
	myGroupRank int
	// sends[gi] is the part of my `from` box that group member gi owns in
	// the target distribution; recvs[gi] the part of my `to` box that gi
	// owns in the source distribution. Either may be empty.
	sends, recvs []tensor.Box3

	// sendPeers and recvPeers list the group ranks whose sends/recvs box is
	// nonempty (this rank included when part of its data stays local), in
	// ascending order: pack, unpack and the P2P loops visit these alone.
	sendPeers, recvPeers []int
	// sendBufs is the dense send slice handed to every exchange of this
	// phase, reused across calls: the engine clones what it keeps at the
	// post, and each pack rewrites every peer entry (the others stay empty).
	sendBufs []mpisim.Buf

	// stats is the group-global exchange shape driving collective-algorithm
	// selection and chunking (see comm.go); picks memoizes the CollAuto
	// schedule per (wire element bytes, batch).
	stats exchStats
	picks map[[2]int]mpisim.Algo
}

// reshapeGroups is the once-per-world group analysis of a reshape: the
// connected components of the "data moves between i and j" graph.
type reshapeGroups struct {
	color   []int         // component root per rank, -1 when uninvolved
	members map[int][]int // root → sorted member ranks
}

// computeReshapeGroups runs union-find over the rank overlap graph. This is
// O(size²) box intersections, so it is memoized per world (see buildReshape)
// instead of being repeated by all 3072 ranks of the biggest experiments.
func computeReshapeGroups(from, to []tensor.Box3) *reshapeGroups {
	size := len(from)
	parent := make([]int, size)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			if rb < ra {
				ra, rb = rb, ra
			}
			parent[rb] = ra // root is the smallest rank, for determinism
		}
	}
	for i := 0; i < size; i++ {
		if from[i].Empty() {
			continue
		}
		for j := 0; j < size; j++ {
			if !tensor.Intersect(from[i], to[j]).Empty() {
				union(i, j)
			}
		}
	}
	g := &reshapeGroups{color: make([]int, size), members: map[int][]int{}}
	for r := 0; r < size; r++ {
		if from[r].Empty() && to[r].Empty() {
			g.color[r] = -1
			continue
		}
		root := find(r)
		g.color[r] = root
		g.members[root] = append(g.members[root], r) // ascending by construction
	}
	return g
}

// buildReshape collectively constructs a reshape phase. Every rank of c must
// call it with identical box lists.
func buildReshape(c *mpisim.Comm, from, to []tensor.Box3, label string, tag int) *reshapePlan {
	key := fmt.Sprintf("core/reshape/%x", hashBoxes(from, to))
	g := c.World().Shared(key, func() any { return computeReshapeGroups(from, to) }).(*reshapeGroups)

	me := c.Rank()
	color := g.color[me]
	group := c.Split(color, me)

	rs := &reshapePlan{label: label, tag: tag, from: from[me], to: to[me]}
	if group == nil {
		return rs
	}
	rs.group = group
	rs.myGroupRank = group.Rank()
	rs.members = g.members[color]
	if len(rs.members) != group.Size() {
		panic(fmt.Sprintf("core: reshape %s: computed %d members, split gave %d", label, len(rs.members), group.Size()))
	}
	rs.sends = make([]tensor.Box3, group.Size())
	rs.recvs = make([]tensor.Box3, group.Size())
	for gi, r := range rs.members {
		rs.sends[gi] = tensor.Intersect(from[me], to[r])
		rs.recvs[gi] = tensor.Intersect(from[r], to[me])
		if !rs.sends[gi].Empty() {
			rs.sendPeers = append(rs.sendPeers, gi)
		}
		if !rs.recvs[gi].Empty() {
			rs.recvPeers = append(rs.recvPeers, gi)
		}
	}
	rs.stats = sharedExchStats(c, from, to, rs.members)
	return rs
}

// sharedExchStats returns the exchange-shape statistics of the reshape
// from → to within the group of parent ranks members. They are O(group²) and
// identical for every member, so they are memoized per world, keyed by boxes
// + group root + placement (different parent comms may share box lists but
// map to different nodes).
func sharedExchStats(c *mpisim.Comm, from, to []tensor.Box3, members []int) exchStats {
	key := fmt.Sprintf("core/reshape-stats/%x/%d/%x", hashBoxes(from, to), members[0], hashInts(worldRanksOf(c, members)))
	return c.World().Shared(key, func() any {
		return computeExchStats(c.Topo(), c.WorldRank, from, to, members)
	}).(exchStats)
}

// worldRanksOf maps parent-comm ranks to world ranks.
func worldRanksOf(c *mpisim.Comm, ranks []int) []int {
	out := make([]int, len(ranks))
	for i, r := range ranks {
		out[i] = c.WorldRank(r)
	}
	return out
}

// hashInts is hashBoxes' flavour for rank lists.
func hashInts(vs []int) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for _, v := range vs {
		h ^= uint64(uint32(v))
		h *= prime
	}
	return h
}

// hashBoxes returns an FNV-1a content hash of box lists, used as the
// memoization key for the group analysis (a pure function of the boxes).
func hashBoxes(lists ...[]tensor.Box3) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	mix := func(v int) {
		h ^= uint64(uint32(v))
		h *= prime
	}
	for _, l := range lists {
		mix(len(l))
		for _, b := range l {
			for d := 0; d < 3; d++ {
				mix(b.Lo[d])
				mix(b.Hi[d])
			}
		}
	}
	return h
}

// run executes the exchange for a batch of fields (all sharing the same
// distribution), moving their complex values, or their real ones for a real
// reshape. Batch payloads are fused into single messages per pair — the
// mechanism behind the batched-transform speedups of Fig. 13.
//
// recycleIn marks the fields' current arrays as plan-owned (produced by an
// earlier stage of the same execution): they are returned to the staging
// pool once packed. The arrays of the very first reshape belong to the
// caller and are never recycled.
func (rs *reshapePlan) run(ctx execCtx, fields []*Field, recycleIn bool) {
	for _, f := range fields {
		if !f.Box.Equal(rs.from) {
			panic(fmt.Sprintf("core: reshape %s: field box %v != expected %v", rs.label, f.Box, rs.from))
		}
	}
	if rs.real {
		moveFields(rs, ctx, fields, recycleIn, func(f *Field) *[]float64 { return &f.real })
	} else {
		moveFields(rs, ctx, fields, recycleIn, func(f *Field) *[]complex128 { return &f.Data })
	}
}

// moveFields runs one exchange over the values each field keeps in *slot(f)
// and moves the fields to the target box.
func moveFields[T any](rs *reshapePlan, ctx execCtx, fields []*Field, recycleIn bool, slot func(*Field) *[]T) {
	datas := make([][]T, len(fields))
	for i, f := range fields {
		datas[i] = *slot(f)
	}
	out := runReshape(rs, ctx, datas, fields[0].Phantom(), recycleIn)
	for i, f := range fields {
		f.Box = rs.to
		if out != nil {
			*slot(f) = out[i]
		}
	}
}

// reverseReshape returns the reshape with source and destination swapped;
// rs was built by buildReshape(c, from, to, ...). Group structure and member
// lists are identical; the box roles and peer lists flip, and the exchange
// statistics are those of the swapped exchange to → from, so the reversed
// phase resolves its schedule and chunking exactly as a reshape built on the
// swapped boxes would. The interior and real flags carry over: a reshape
// between compute stages stays between compute stages in the reversed
// pipeline, and a real reshape still moves real values.
func reverseReshape(c *mpisim.Comm, rs *reshapePlan, from, to []tensor.Box3) *reshapePlan {
	rev := &reshapePlan{
		label: rs.label + "-rev", tag: rs.tag + 50,
		from: rs.to, to: rs.from, interior: rs.interior, real: rs.real,
		group: rs.group, members: rs.members, myGroupRank: rs.myGroupRank,
		sends: rs.recvs, recvs: rs.sends,
		sendPeers: rs.recvPeers, recvPeers: rs.sendPeers,
	}
	if rs.group != nil {
		rev.stats = sharedExchStats(c, to, from, rs.members)
	}
	return rev
}

// execCtx carries what a reshape needs from its plan.
type execCtx struct {
	dev  *gpu.Device
	opts Options
	// check is the context-cancellation hook of the Ctx entry points, invoked
	// at chunk boundaries; nil means no context is attached.
	check func()
}

// check runs the cancellation hook if one is attached.
func (e execCtx) Check() {
	if e.check != nil {
		e.check()
	}
}

// mkBuf wraps a typed slice (or a phantom element count) as a message
// payload at the given wire precision. Phantom buffers carry the precision
// too, so cost-only runs bill byte-identical transport charges.
func mkBuf[T any](data []T, phantomElems int, wire WirePrecision) mpisim.Buf {
	if data == nil {
		var zero T
		_, isReal := any(zero).(float64)
		return mpisim.Buf{N: phantomElems, PhantomReal: isReal, Loc: machine.Device, Wire: wire}
	}
	switch d := any(data).(type) {
	case []complex128:
		return mpisim.Buf{Data: d, Loc: machine.Device, Wire: wire}
	case []float64:
		return mpisim.Buf{Real: d, Loc: machine.Device, Wire: wire}
	default:
		panic("core: unsupported payload element type")
	}
}

// bufSlice extracts the typed payload of a received buffer.
func bufSlice[T any](b mpisim.Buf) []T {
	var zero T
	switch any(zero).(type) {
	case complex128:
		return any(b.Data).([]T)
	case float64:
		return any(b.Real).([]T)
	default:
		panic("core: unsupported payload element type")
	}
}

func elemBytes[T any]() int {
	var zero T
	if _, ok := any(zero).(float64); ok {
		return 8
	}
	return 16
}

// runReshape executes one exchange generically over the element type:
// complex128 for the transform pipeline, float64 for the real segment of R2C.
// datas[i] is batch entry i's local array over rs.from (nil slices for
// phantom batches); the return value holds the new arrays over rs.to (nil
// for phantom).
func runReshape[T any](rs *reshapePlan, ctx execCtx, datas [][]T, phantom, recycleIn bool) [][]T {
	if rs.group != nil && !ctx.opts.Backend.Collective() {
		return runReshapeP2P(rs, ctx, datas, phantom, recycleIn)
	}
	x := newTransfer(rs, ctx, datas, phantom, recycleIn)
	return x.run()
}

// recycleDatas returns plan-owned input arrays to the staging pool once their
// contents have been packed into send buffers. Arrays still owned by the
// caller (recycle == false) are left alone.
func recycleDatas[T any](datas [][]T, recycle bool) {
	if !recycle {
		return
	}
	for i, d := range datas {
		putBuf(d)
		datas[i] = nil
	}
}

// recycleRecv returns a received payload to the staging pool. Only buffers
// shipped with Move are plan-owned; anything else is left untouched.
func recycleRecv[T any](b mpisim.Buf) {
	if b.Move && (b.Data != nil || b.Real != nil) {
		putBuf(bufSlice[T](b))
	}
}

// packSendBufs builds the per-member send buffers of chunk ci of chunks
// (see chunkBox; 0 of 1 is the whole exchange), fusing the batch. With
// ABFT invariants on, every packed block carries its element sum in the
// message envelope (verified after unpack) and the fused sum pass is charged
// — unless the transport's checksummed envelopes already bill that stream.
//
// On a compressed wire (rs.wireOf != fp64) the down-conversion fuses into the
// pack: each block is rounded to the wire grid in place after packing — the
// exact values a receiver observes after the down/up round trip — every
// buffer is stamped with the wire format so all transport costs price the
// narrow bytes, and one convert pass over the full-width side of the stream
// is charged. The envelope sum is taken before rounding (it rides the pack
// kernel's full-precision read), so envelope verification under compression
// is tolerance-based (see verifyEnvelope). The returned byte count is the
// on-wire total — what the pack kernel writes.
func packSendBufs[T any](rs *reshapePlan, ctx execCtx, datas [][]T, phantom bool, ci, chunks int) ([]mpisim.Buf, int) {
	if rs.sendBufs == nil {
		rs.sendBufs = make([]mpisim.Buf, rs.group.Size())
		for gi := range rs.sendBufs {
			rs.sendBufs[gi] = mpisim.Buf{Loc: machine.Device}
		}
	}
	bufs := rs.sendBufs
	wire := rs.wireOf(ctx.opts)
	eb := elemBytes[T]()
	web := WireElemSize(wire, eb)
	wireBytes, fullBytes := 0, 0
	ic := rs.group.Integrity()
	for _, gi := range rs.sendPeers {
		sb := chunkBox(rs.sends[gi], ci, chunks)
		vol := sb.Volume()
		if vol == 0 {
			bufs[gi] = mpisim.Buf{Loc: machine.Device}
			continue
		}
		elems := vol * len(datas)
		wireBytes += web * elems
		fullBytes += eb * elems
		if phantom {
			bufs[gi] = mkBuf[T](nil, elems, wire)
			continue
		}
		data := getBuf[T](elems)
		off := 0
		for _, d := range datas {
			tensor.Pack(d, rs.from, sb, data[off:off+vol])
			off += vol
		}
		// Pack buffers are shipped with Move: the receiver takes ownership
		// and returns them to the pool after unpacking, so no defensive copy
		// is made anywhere on the path.
		bufs[gi] = mkBuf(data, 0, wire)
		bufs[gi].Move = true
		if ic.Invariants {
			envelopeSum(&bufs[gi], data)
		}
		quantizeSlice(wire, data)
	}
	if wire != WireFp64 {
		ctx.dev.Convert(fullBytes)
	}
	if ic.Invariants && !ic.Checksums {
		rs.group.ChargeChecksum(wireBytes)
	}
	return bufs, wireBytes
}

// quantizeSlice rounds a packed block to the wire grid in place (no-op for
// fp64 and for phantom/nil slices).
func quantizeSlice[T any](w WirePrecision, data []T) {
	if w == WireFp64 || data == nil {
		return
	}
	switch d := any(data).(type) {
	case []complex128:
		w.QuantizeComplex(d)
	case []float64:
		w.QuantizeReal(d)
	}
}

// unpackBufInto scatters one member's received buffer, covering box rb of
// the target distribution, into the new arrays, verifying the block's ABFT
// envelope sum first when one is attached.
func unpackBufInto[T any](rs *reshapePlan, newData [][]T, gi int, rb tensor.Box3, buf mpisim.Buf) {
	vol := rb.Volume()
	if vol == 0 || newData == nil {
		return
	}
	verifyEnvelope[T](rs, gi, buf)
	src := bufSlice[T](buf)
	off := 0
	for fi := range newData {
		tensor.Unpack(newData[fi], rs.to, rb, src[off:off+vol])
		off += vol
	}
}

// allocNewArrays draws the target-distribution arrays from the staging pool.
// They are not zeroed: the receive boxes of a group tile rs.to exactly (the
// source boxes tile the global grid), so unpacking overwrites every element.
func allocNewArrays[T any](rs *reshapePlan, n int, phantom bool) [][]T {
	if phantom {
		return nil
	}
	out := make([][]T, n)
	for i := range out {
		out[i] = getBuf[T](rs.to.Volume())
	}
	return out
}

// runReshapeP2P implements the Point-to-Point exchanges of Table I: heFFTe's
// MPI_Isend/MPI_Irecv/Waitany (non-blocking) or MPI_Send/MPI_Irecv
// (blocking). Receives are posted first, sends streamed, and arrivals
// unpacked as they complete.
func runReshapeP2P[T any](rs *reshapePlan, ctx execCtx, datas [][]T, phantom, recycleIn bool) [][]T {
	g := rs.group
	me := rs.myGroupRank
	blocking := ctx.opts.Backend == BackendP2PBlocking

	// Post all receives.
	var rreqs []*mpisim.Request
	var rsrcs []int
	for _, gi := range rs.recvPeers {
		if gi != me {
			rreqs = append(rreqs, g.Irecv(gi, rs.tag))
			rsrcs = append(rsrcs, gi)
		}
	}

	bufs, sendBytes := packSendBufs(rs, ctx, datas, phantom, 0, 1)
	recycleDatas(datas, recycleIn)
	ctx.dev.Pack(sendBytes, ctx.opts.Contiguous)

	// Stream the sends.
	var sreqs []*mpisim.Request
	for _, gi := range rs.sendPeers {
		if gi == me {
			continue
		}
		if blocking {
			g.Send(gi, rs.tag, bufs[gi])
		} else {
			sreqs = append(sreqs, g.Isend(gi, rs.tag, bufs[gi]))
		}
	}

	newData := allocNewArrays[T](rs, len(datas), phantom)
	wire := rs.wireOf(ctx.opts)
	eb := elemBytes[T]()
	web := WireElemSize(wire, eb)

	// The local share never touches the network.
	if self := rs.sends[me]; !self.Empty() {
		if newData != nil {
			unpackBufInto(rs, newData, me, rs.recvs[me], bufs[me])
			recycleRecv[T](bufs[me])
		}
		ctx.dev.Unpack(web*self.Volume()*len(datas), ctx.opts.Contiguous)
	}

	// Drain arrivals in completion order (MPI_Waitany), unpacking each.
	for range rreqs {
		i, buf := g.Waitany(rreqs)
		if newData != nil {
			unpackBufInto(rs, newData, rsrcs[i], rs.recvs[rsrcs[i]], buf)
			recycleRecv[T](buf)
		}
		ctx.dev.Unpack(buf.Bytes(), ctx.opts.Contiguous)
	}
	if !blocking {
		g.Waitall(sreqs)
	}
	recvTotal, recvFull := 0, 0
	for _, gi := range rs.recvPeers {
		recvTotal += web * rs.recvs[gi].Volume() * len(datas)
		recvFull += eb * rs.recvs[gi].Volume() * len(datas)
	}
	rs.chargeEnvelopeVerify(recvTotal)
	if wire != WireFp64 {
		ctx.dev.Convert(recvFull)
	}
	return newData
}
