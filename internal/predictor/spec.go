package predictor

import (
	"repro/internal/hist"
	"repro/internal/local"
)

// SpecState is the per-branch speculative checkpoint of a composite
// predictor's history state: the global history head pointer, the IMLI
// counter and the PIPE vector — exactly the state the paper says a
// hardware implementation checkpoints per fetch block (§2.3.1, §4.4).
type SpecState struct {
	Global hist.GlobalCheckpoint
	IMLI   uint32
	Pipe   uint32
	Path   uint64
}

// SpecCheckpoint captures the speculative history state.
func (c *Composite) SpecCheckpoint() SpecState {
	s := SpecState{Global: c.g.Checkpoint(), Path: c.path.Value()}
	if c.imli != nil {
		s.IMLI = c.imli.Checkpoint()
	}
	if c.oh != nil {
		s.Pipe = c.oh.CheckpointPipe()
	}
	return s
}

// SpecRestore rewinds the speculative history state to a checkpoint
// taken earlier, repairing a misprediction. The folded history
// registers are recomputed from the restored global history — in
// hardware they are checkpointed alongside the head pointer; the
// recomputation here is behaviourally identical.
func (c *Composite) SpecRestore(s SpecState) {
	c.g.Restore(s.Global)
	c.path.Restore(s.Path)
	if c.imli != nil {
		c.imli.Restore(s.IMLI)
	}
	if c.oh != nil {
		c.oh.RestorePipe(s.Pipe)
	}
	c.bank.ResetAll(c.g)
}

// SpecPush performs the history-side update of one conditional branch
// with the given (possibly speculative) direction: the IMLI counter
// heuristic and the global/path/folded histories. It is the
// speculative half of Train; TrainTables is the commit half.
func (c *Composite) SpecPush(pc, target uint64, taken bool) {
	if c.imli != nil {
		c.imli.Observe(pc, target, taken)
	}
	c.pushHistory(taken, pc)
}

// TrainTables performs the table-side update of one conditional branch
// with the resolved outcome: every prediction counter, the loop and
// wormhole predictors, the IMLI outer-history table and the local
// history table. It must be called after Predict and before SpecPush
// for the same branch (it reads the pre-branch IMLI state, matching
// the immediate-update ordering of Train).
func (c *Composite) TrainTables(pc, target uint64, taken bool) {
	mispredicted := c.lastFinal != taken
	backward := target < pc
	if c.tage != nil {
		c.gsc.Update(taken)
		c.tage.Update(pc, taken, c.lastTage)
	} else {
		c.gehl.Update(taken)
	}
	if c.lp != nil {
		c.lp.Update(pc, taken, mispredicted, backward)
	}
	if c.wh != nil {
		c.wh.Update(pc, taken, mispredicted, backward)
	}
	if c.oh != nil {
		c.oh.UpdateHistory(pc, taken)
	}
	if c.loc != nil && !c.locDetached {
		c.loc.UpdateHistory(pc, taken)
	}
}

// LocalGroup exposes the local-history component group (nil when the
// configuration has none).
func (c *Composite) LocalGroup() *local.Group { return c.loc }

// DetachLocalHistory stops TrainTables from committing local history
// and hands the group to the caller, which then owns both the commit
// timing and the speculative read path — the §2.3.2 pipeline model in
// internal/sim uses this.
func (c *Composite) DetachLocalHistory() *local.Group {
	c.locDetached = true
	return c.loc
}
