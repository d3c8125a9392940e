package cpu

import (
	"fmt"
	"sync"
	"sync/atomic"

	"lightzone/internal/arm64"
	"lightzone/internal/arm64/absint"
	"lightzone/internal/mem"
)

// The proof auditor is the dynamic oracle for the abstract interpreter's
// BlockProof artifacts (internal/arm64/absint): whenever the pipeline
// replays a cached decoded block, the auditor opens a span over the replay
// and cross-checks what the proof predicted against what the concrete
// machine did — every interior data access in order (direction, width, and
// page when the proof pinned one), system-register and PAN freedom, and
// the minimum cycle charge implied by the proof's instruction, access and
// barrier counts. A span abandons silently on any control discontinuity
// (exception delivery, cursor invalidation, IRQ); it records a divergence
// only when a completed straight-line replay contradicts its proof.
//
// The auditor is strictly observation-only: it never calls Charge, never
// touches Stats, and never mutates architectural state, so enabling it
// cannot change emitted benchmark results (lzbench -pipeline audit asserts
// stdout byte-identity on top of the divergence count).

// ProofAuditStats aggregates audit outcomes across all vCPUs since the
// last reset. Spans = replays opened, Finished = replays that ran their
// proof to the terminator, Abandoned = spans dropped on a control
// discontinuity, Divergences = completed spans that contradicted their
// proof.
type ProofAuditStats struct {
	Spans       int64
	Finished    int64
	Abandoned   int64
	Divergences int64
	Details     []string
}

var (
	paSpans       atomic.Int64
	paFinished    atomic.Int64
	paAbandoned   atomic.Int64
	paDivergences atomic.Int64

	paDetailMu  sync.Mutex
	paDetails   []string
	paDetailCap = 32
)

// ReadProofAudit snapshots the global audit counters.
func ReadProofAudit() ProofAuditStats {
	paDetailMu.Lock()
	details := append([]string(nil), paDetails...)
	paDetailMu.Unlock()
	return ProofAuditStats{
		Spans:       paSpans.Load(),
		Finished:    paFinished.Load(),
		Abandoned:   paAbandoned.Load(),
		Divergences: paDivergences.Load(),
		Details:     details,
	}
}

// ResetProofAudit zeroes the global audit counters.
func ResetProofAudit() {
	paSpans.Store(0)
	paFinished.Store(0)
	paAbandoned.Store(0)
	paDivergences.Store(0)
	paDetailMu.Lock()
	paDetails = nil
	paDetailMu.Unlock()
}

func paDiverge(format string, args ...any) {
	paDivergences.Add(1)
	paDetailMu.Lock()
	if len(paDetails) < paDetailCap {
		paDetails = append(paDetails, fmt.Sprintf(format, args...))
	}
	paDetailMu.Unlock()
}

// seenAccess is one concrete data access observed during a span.
type seenAccess struct {
	write bool
	page  uint64
	size  int
}

// proofAudit is the per-vCPU audit state. One span is live at a time — a
// replay of one cached block from its first instruction to its terminator.
type proofAudit struct {
	active bool
	blk    *dblock // identity guard against cursor invalidation
	proof  *absint.BlockProof
	idx    int    // index of the next instruction expected to dispatch
	expect uint64 // PC of that instruction
	start  int64  // Cycles+batch at span open

	sysSnap [4]uint64 // TTBR0, TTBR1, SCTLR, VBAR at span open
	panSnap bool

	seen []seenAccess

	// Trace-span state: one composed-trace replay audited end to end
	// against its TraceProof. Mutually exclusive with a block span —
	// noteTraceEnter abandons any active block span, and block spans only
	// open from Step, never mid-trace.
	tActive bool
	tProof  *absint.TraceProof
	tIdx    int
	tStart  int64
	tSys    [4]uint64
	tPan    bool
	tSeen   []seenAccess
}

// SetProofAudit attaches or detaches the audit oracle on this vCPU.
// Attaching drops the live traces: they were stitched without proofs, and
// the ones that restitch under the oracle carry theirs.
func (c *VCPU) SetProofAudit(on bool) {
	if on && c.audit == nil {
		c.dropAllTraces()
		c.audit = &proofAudit{}
	} else if !on {
		c.audit = nil
	}
}

// noteEnter opens a span over a full-block replay beginning at pc. The
// proof is derived lazily and cached on the block: a dblock is discarded
// whenever its page's code epoch moves, so the proof's lifetime is exactly
// the decoded bytes' lifetime.
func (a *proofAudit) noteEnter(c *VCPU, b *dblock, pc uint64) {
	if len(b.insns) < 2 {
		return // single-instruction blocks have no interior to audit
	}
	if a.active {
		a.abandon()
	}
	if b.proof == nil {
		b.proof = absint.ProveBlock(pc, b.insns)
	}
	a.active = true
	a.blk = b
	a.proof = b.proof
	a.idx = 0
	a.expect = pc
	a.start = c.Cycles + c.batch
	a.sysSnap = [4]uint64{
		c.sys[arm64.TTBR0EL1], c.sys[arm64.TTBR1EL1],
		c.sys[arm64.SCTLREL1], c.sys[arm64.VBAREL1],
	}
	a.panSnap = c.PAN()
	a.seen = a.seen[:0]
	paSpans.Add(1)
}

// noteDispatch observes one instruction about to dispatch. The terminator
// closes the span before its handler runs — interior effects are complete,
// and the terminator itself (the one instruction allowed to trap, branch,
// or write a system register) is out of scope.
func (a *proofAudit) noteDispatch(c *VCPU, pc uint64) {
	if !a.active {
		return
	}
	if pc != a.expect {
		a.abandon()
		return
	}
	if a.idx == a.proof.Insns-1 {
		a.finish(c)
		return
	}
	// Interior instruction: the replay cursor must still be walking the
	// audited block, or a code write invalidated it under our feet.
	if c.cur.blk != a.blk {
		a.abandon()
		return
	}
	a.idx++
	a.expect += arm64.InsnBytes
}

// noteAccess observes one successful charged data access, feeding whichever
// span is live (at most one is, by construction).
func (a *proofAudit) noteAccess(write bool, va mem.VA, size int) {
	if a.tActive {
		if len(a.tSeen) < len(a.tProof.Claims)+4 {
			a.tSeen = append(a.tSeen, seenAccess{write: write, page: uint64(va) >> mem.PageShift, size: size})
		}
		return
	}
	if !a.active {
		return
	}
	if len(a.seen) < len(a.proof.Claims)+4 {
		a.seen = append(a.seen, seenAccess{write: write, page: uint64(va) >> mem.PageShift, size: size})
	}
}

func (a *proofAudit) abandon() {
	a.active = false
	a.blk = nil
	paAbandoned.Add(1)
}

// finish closes a completed span: every interior claim must have been
// consumed in order, proven-free state must be unchanged, and the cycle
// delta must cover the proof's minimum charge.
func (a *proofAudit) finish(c *VCPU) {
	a.active = false
	a.blk = nil
	paFinished.Add(1)
	p := a.proof

	claims := p.InteriorClaims()
	if len(a.seen) != len(claims) {
		paDiverge("block %#x: %d interior accesses observed, proof claims %d",
			p.PC, len(a.seen), len(claims))
		return
	}
	for i, cl := range claims {
		got := a.seen[i]
		if got.write != cl.Write || got.size != cl.Size {
			paDiverge("block %#x claim %d: observed %s/%d, proof claims %s/%d",
				p.PC, i, rw(got.write), got.size, rw(cl.Write), cl.Size)
			return
		}
		if cl.Known && got.page != cl.Page {
			paDiverge("block %#x claim %d: observed page %#x, proof pins %#x",
				p.PC, i, got.page, cl.Page)
			return
		}
	}
	if p.SysregFree {
		now := [4]uint64{
			c.sys[arm64.TTBR0EL1], c.sys[arm64.TTBR1EL1],
			c.sys[arm64.SCTLREL1], c.sys[arm64.VBAREL1],
		}
		if now != a.sysSnap {
			paDiverge("block %#x: sysreg state moved across a SysregFree block", p.PC)
			return
		}
	}
	if p.PANFree && c.PAN() != a.panSnap {
		paDiverge("block %#x: PAN moved across a PANFree block", p.PC)
		return
	}
	min := int64(p.Insns)*c.Prof.InsnCost +
		int64(p.InteriorAccesses())*c.Prof.MemAccessCost +
		int64(p.ISBs)*c.Prof.ISBCost +
		int64(p.DSBs)*c.Prof.DSBCost
	if got := c.Cycles + c.batch - a.start; got < min {
		paDiverge("block %#x: charged %d cycles, proof minimum %d", p.PC, got, min)
	}
}

func rw(write bool) string {
	if write {
		return "write"
	}
	return "read"
}

// proveTrace proves each member block (lazily, cached on the block) and
// composes the results into the trace's TraceProof. Only the oracle reads
// trace proofs, so the stitcher calls this only with the audit attached.
// The composer accepts every trace the stitcher builds; a rejection is a
// divergence, and the trace is not installed.
func (a *proofAudit) proveTrace(t *trace, edges []absint.TraceEdge) bool {
	proofs := make([]*absint.BlockProof, len(t.blocks))
	for i, b := range t.blocks {
		if b.proof == nil {
			b.proof = absint.ProveBlock(t.starts[i], b.insns)
		}
		proofs[i] = b.proof
	}
	t.proof = absint.ComposeTrace(t.starts[0], proofs, edges)
	if t.proof == nil {
		paDiverge("trace %#x: composer rejected the stitched trace", t.starts[0])
		return false
	}
	return true
}

// noteTraceEnter opens a span over a guarded trace replay. Any active block
// span is abandoned first: the trace replaces the block-pipeline replay the
// span was watching.
func (a *proofAudit) noteTraceEnter(c *VCPU, t *trace) {
	if a.active {
		a.abandon()
	}
	if a.tActive {
		a.abandonTraceSpan()
	}
	if t.proof == nil {
		paDiverge("trace %#x: entered without a proof", t.starts[0])
		return
	}
	a.tActive = true
	a.tProof = t.proof
	a.tIdx = 0
	a.tStart = c.Cycles + c.batch
	a.tSys = [4]uint64{
		c.sys[arm64.TTBR0EL1], c.sys[arm64.TTBR1EL1],
		c.sys[arm64.SCTLREL1], c.sys[arm64.VBAREL1],
	}
	a.tPan = c.PAN()
	a.tSeen = a.tSeen[:0]
	paSpans.Add(1)
}

// noteTraceStep observes trace step i about to dispatch. The final step
// closes the span before its handler runs, mirroring noteDispatch: interior
// effects are complete and the trace's own exit is out of scope. A PC
// disagreeing with the composed proof's prediction is a real divergence —
// the stitcher and the composer derived the same path independently.
func (a *proofAudit) noteTraceStep(c *VCPU, i int) {
	if !a.tActive {
		return
	}
	tp := a.tProof
	if a.tIdx != i || i >= len(tp.PCs) || c.PC != tp.PCs[i] {
		paDiverge("trace %#x step %d: pc %#x, composed proof predicts %#x",
			tp.EntryPC, i, c.PC, tp.PCs[min(i, len(tp.PCs)-1)])
		a.tActive = false
		return
	}
	if i == tp.Insns-1 {
		a.finishTrace(c)
		return
	}
	a.tIdx = i + 1
}

// abandonTraceSpan drops the live trace span on a side-exit (misprediction,
// generation movement, exception delivery). No-op when no span is live —
// the finished/abandoned paths may both fire on one exit.
func (a *proofAudit) abandonTraceSpan() {
	if !a.tActive {
		return
	}
	a.tActive = false
	paAbandoned.Add(1)
}

// finishTrace closes a completed trace span: every interior composed claim
// consumed in order, trace-wide freedom invariants held, and the cycle
// delta covered the composed minimum charge.
func (a *proofAudit) finishTrace(c *VCPU) {
	a.tActive = false
	paFinished.Add(1)
	tp := a.tProof

	interior := 0
	for _, cl := range tp.Claims {
		if cl.Index >= tp.Insns-1 {
			continue
		}
		if interior >= len(a.tSeen) {
			paDiverge("trace %#x: %d interior accesses observed, composed proof claims more",
				tp.EntryPC, len(a.tSeen))
			return
		}
		got := a.tSeen[interior]
		if got.write != cl.Write || got.size != cl.Size {
			paDiverge("trace %#x claim %d: observed %s/%d, proof claims %s/%d",
				tp.EntryPC, interior, rw(got.write), got.size, rw(cl.Write), cl.Size)
			return
		}
		if cl.Known && got.page != cl.Page {
			paDiverge("trace %#x claim %d: observed page %#x, proof pins %#x",
				tp.EntryPC, interior, got.page, cl.Page)
			return
		}
		interior++
	}
	if interior != len(a.tSeen) {
		paDiverge("trace %#x: %d interior accesses observed, composed proof claims %d",
			tp.EntryPC, len(a.tSeen), interior)
		return
	}
	if tp.SysregFree {
		now := [4]uint64{
			c.sys[arm64.TTBR0EL1], c.sys[arm64.TTBR1EL1],
			c.sys[arm64.SCTLREL1], c.sys[arm64.VBAREL1],
		}
		if now != a.tSys {
			paDiverge("trace %#x: sysreg state moved across a SysregFree trace", tp.EntryPC)
			return
		}
	}
	if tp.PANFree && c.PAN() != a.tPan {
		paDiverge("trace %#x: PAN moved across a PANFree trace", tp.EntryPC)
		return
	}
	min := tp.MinCharge(c.Prof.InsnCost, c.Prof.MemAccessCost,
		c.Prof.ISBCost, c.Prof.DSBCost, c.Prof.BranchCost, c.Prof.PanToggleCost)
	if got := c.Cycles + c.batch - a.tStart; got < min {
		paDiverge("trace %#x: charged %d cycles, composed proof minimum %d",
			tp.EntryPC, got, min)
	}
}
