package mpisim

// CollRequest is the handle of a non-blocking collective (MPI_Ialltoallv),
// the mechanism behind the asynchronous communication/computation overlap
// explored by the turbulence and GPUDirect studies the paper cites ([28],
// [34], [35]): a rank posts the exchange, computes, and only pays the
// remaining communication time at Wait.
type CollRequest struct {
	comm       *Comm
	postedAt   float64
	completeAt float64
	recv       []Buf
	done       bool
	bytes      int
	// op names the posting call in fault, timeout and integrity reports;
	// waitName is the trace name of the completing wait. A posted
	// MPI_Ialltoallv completes as "MPI_Alltoallv", so per-call breakdowns
	// attribute the communication time to the collective regardless of
	// pipelining.
	op, waitName string
}

// IalltoallvWith posts a non-blocking algorithm-scheduled all-to-all-v: the
// exchange is scheduled at once, exactly as AlltoallvWith would schedule it,
// but the caller pays only the posting overhead now and the remaining
// exchange time at WaitColl, where it overlaps whatever local work ran in
// between (the chunked pipelined reshape packs the next chunk there).
//
// Posting synchronizes in real time with the other ranks (they must all
// reach the post), but virtual time keeps the overlap semantics: the wait
// completes at the blocking call's instant, or at the end of the posting
// overhead if that is later.
func (c *Comm) IalltoallvWith(send []Buf, a Algo) *CollRequest {
	r := c.post(send, algoImpl(a), "MPI_Ialltoallv", "MPI_Alltoallv")
	st := c.state()
	st.clock += c.Model().HostOverheadColl
	c.record("MPI_Ialltoallv", r.postedAt, st.clock, r.bytes)
	return &r
}

// WaitColl completes a non-blocking collective, advancing the clock to the
// exchange's completion (or not at all if local work already covered it) and
// returning the received buffers.
func (c *Comm) WaitColl(r *CollRequest) []Buf {
	if r.done {
		panic("mpisim: WaitColl on completed request")
	}
	if r.comm.core != c.core || r.comm.rank != c.rank {
		panic("mpisim: WaitColl on another rank's request")
	}
	return c.wait(r, c.state().clock)
}

// wait is the completion half shared by WaitColl and the blocking calls: the
// clock adopts the exchange's completion, a trace event spans [from, clock],
// and the received blocks pass the transport's verification.
func (c *Comm) wait(r *CollRequest, from float64) []Buf {
	st := c.state()
	// The timeout bound covers post → completion: a straggler or a dropped
	// contribution fails the wait instead of stretching it unboundedly.
	if end := c.collClock(r.op, r.postedAt, r.completeAt); end > st.clock {
		st.clock = end
	}
	r.done = true
	c.record(r.waitName, from, st.clock, r.bytes)
	c.checkCorrupt(r.recv, r.op)
	c.deliverIntegrity(r.recv, r.op)
	return r.recv
}
