package core

import (
	"fmt"

	"repro/internal/mpisim"
)

// faultErrFrom converts a panic recovered during plan execution into an error
// carrying execution context (rank, phase), or nil if the panic is not
// fault-related (the caller must re-panic those). The underlying sentinel
// (mpisim.ErrRankFailed, ErrMessageCorrupt, ErrExchangeTimeout) stays
// reachable through errors.Is.
func faultErrFrom(r any, c *mpisim.Comm, phase string) error {
	fe := mpisim.FaultFrom(r, c.World())
	if fe == nil {
		return nil
	}
	if phase == "" {
		phase = "setup"
	}
	return fmt.Errorf("core: rank %d: phase %q: %w", c.WorldRank(c.Rank()), phase, fe)
}

// recoverFault is the deferred fault handler of Plan.execute. It is a method
// taking the error pointer (not a closure) so deferring it in the execution
// hot path allocates nothing — the steady-state zero-allocation guarantee of
// Forward/Inverse holds with fault handling armed.
func (p *Plan) recoverFault(errp *error) {
	r := recover()
	if r == nil {
		return
	}
	err := faultErrFrom(r, p.comm, p.curPhase)
	if err == nil {
		panic(r)
	}
	p.lastExec.End = p.comm.Clock()
	*errp = err
}
