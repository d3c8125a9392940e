package cpu

import (
	"strings"
	"testing"

	"lightzone/internal/arm64"
	"lightzone/internal/mem"
)

// memLoop emits a hot loop with interior data traffic: store the counter,
// load it back, accumulate, n iterations, then HVC to stop.
func memLoop(n uint64) *arm64.Asm {
	a := arm64.NewAsm()
	a.MovImm(0, 0)
	a.MovImm(1, n)
	a.MovImm(2, uint64(dataVA))
	a.Label("loop")
	a.Emit(arm64.STRImm(1, 2, 0, 3))
	a.Emit(arm64.LDRImm(3, 2, 0, 3))
	a.Emit(arm64.ADDReg(0, 0, 3))
	a.Emit(arm64.SUBSImm(1, 1, 1))
	a.BCond(arm64.CondNE, "loop")
	a.Emit(arm64.HVC(0))
	return a
}

// TestProofAuditCleanLoop replays a hot loop under the audit oracle: spans
// must open and finish, and a well-formed program must never diverge from
// its block proofs.
func TestProofAuditCleanLoop(t *testing.T) {
	ResetProofAudit()
	e := newEnv(t)
	e.c.SetProofAudit(true)
	e.load(t, memLoop(64))
	e.run(t, 10000)
	if e.c.R(0) != 64*65/2 {
		t.Errorf("sum = %d, want %d", e.c.R(0), 64*65/2)
	}
	st := ReadProofAudit()
	if st.Spans == 0 || st.Finished == 0 {
		t.Errorf("audit saw no completed spans: %+v", st)
	}
	if st.Divergences != 0 {
		t.Errorf("clean loop diverged from its proofs: %+v", st)
	}
}

// TestProofAuditTraceProofs stitches a hot memLoop with traces on. Trace
// proofs exist exactly while the oracle is attached: with it, every live
// trace carries a proof and the replays never diverge; without it, no trace
// is proven; and attaching it late leaves no trace without a proof.
func TestProofAuditTraceProofs(t *testing.T) {
	hot := func(e *env) {
		for i := 0; i < 4; i++ {
			e.rerun(t, 10000)
		}
	}
	proven := func(e *env) (live, withProof int) {
		for _, tr := range e.c.tcache.traces {
			live++
			if tr.proof != nil {
				withProof++
			}
		}
		return live, withProof
	}
	for _, audit := range []bool{true, false} {
		ResetProofAudit()
		before := ReadTraceStats()
		e := newEnv(t)
		e.c.SetTraceHotThreshold(2)
		e.c.SetProofAudit(audit)
		e.load(t, memLoop(8))
		e.run(t, 10000)
		hot(e)
		live, withProof := proven(e)
		if done := ReadTraceStats().Sub(before).Completed; live == 0 || done == 0 {
			t.Fatalf("audit=%v: %d live traces, %d completed; want both nonzero", audit, live, done)
		}
		want := 0
		if audit {
			want = live
		}
		if withProof != want {
			t.Errorf("audit=%v: %d of %d live traces carry a proof, want %d", audit, withProof, live, want)
		}
		if st := ReadProofAudit(); st.Divergences != 0 || (audit && st.Finished == 0) {
			t.Errorf("audit=%v: %+v", audit, st)
		}
	}

	ResetProofAudit()
	e := newEnv(t)
	e.c.SetTraceHotThreshold(2)
	e.load(t, memLoop(8))
	e.run(t, 10000)
	hot(e)
	if live, _ := proven(e); live == 0 {
		t.Fatal("no trace stitched before the audit was attached")
	}
	e.c.SetProofAudit(true)
	if live, withProof := proven(e); live != withProof {
		t.Errorf("late attach left %d of %d live traces without a proof", live-withProof, live)
	}
	hot(e)
	if live, withProof := proven(e); live == 0 || live != withProof {
		t.Errorf("after late attach: %d of %d live traces carry a proof", withProof, live)
	}
	if st := ReadProofAudit(); st.Divergences != 0 || st.Finished == 0 {
		t.Errorf("after late attach: %+v", st)
	}
}

// TestProofAuditObservationOnly requires bit-identical emulated cycles,
// instruction counts and results with the oracle on and off — auditing may
// never perturb the measured machine.
func TestProofAuditObservationOnly(t *testing.T) {
	run := func(audit bool) (int64, int64, uint64) {
		ResetProofAudit()
		e := newEnv(t)
		e.c.SetProofAudit(audit)
		e.load(t, memLoop(100))
		e.run(t, 10000)
		return e.c.Cycles, e.c.Insns, e.c.R(0)
	}
	onCycles, onInsns, onSum := run(true)
	offCycles, offInsns, offSum := run(false)
	if onCycles != offCycles || onInsns != offInsns || onSum != offSum {
		t.Errorf("audit perturbed execution: on (%d cycles, %d insns, sum %d), off (%d, %d, %d)",
			onCycles, onInsns, onSum, offCycles, offInsns, offSum)
	}
}

// TestProofAuditDetectsClaimMismatch drives the span state machine directly
// with an access that contradicts the block's proof (wrong width) and
// requires a recorded divergence — the oracle must be able to fail.
func TestProofAuditDetectsClaimMismatch(t *testing.T) {
	ResetProofAudit()
	e := newEnv(t)
	a := arm64.NewAsm()
	a.Emit(arm64.LDRImm(3, 2, 0, 3)) // proof claims one 8-byte read
	a.Emit(arm64.RET(30))
	words, err := a.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	ins := make([]arm64.Insn, len(words))
	for i, w := range words {
		ins[i] = arm64.Decode(w)
	}
	b := &dblock{insns: ins}
	au := &proofAudit{}
	const base = 0x4000
	au.noteEnter(e.c, b, base)
	if !au.active {
		t.Fatal("span did not open")
	}
	e.c.cur = blockCursor{blk: b, idx: 1, expect: base + arm64.InsnBytes}
	au.noteDispatch(e.c, base)
	au.noteAccess(false, mem.VA(dataVA), 4) // width contradicts the claim
	au.noteDispatch(e.c, base+arm64.InsnBytes)
	st := ReadProofAudit()
	if st.Divergences != 1 {
		t.Fatalf("divergences = %d, want 1 (%+v)", st.Divergences, st)
	}
	if len(st.Details) == 0 || !strings.Contains(st.Details[0], "claim") {
		t.Errorf("divergence detail missing or unspecific: %q", st.Details)
	}
	ResetProofAudit()
	if st := ReadProofAudit(); st.Spans != 0 || st.Divergences != 0 || len(st.Details) != 0 {
		t.Errorf("reset left state behind: %+v", st)
	}
}

// TestProofAuditAbandonsOnDiscontinuity opens a span and dispatches off the
// expected path; the span must abandon without claiming a divergence.
func TestProofAuditAbandonsOnDiscontinuity(t *testing.T) {
	ResetProofAudit()
	e := newEnv(t)
	a := arm64.NewAsm()
	a.Emit(arm64.ADDReg(0, 0, 1))
	a.Emit(arm64.RET(30))
	words, err := a.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	ins := make([]arm64.Insn, len(words))
	for i, w := range words {
		ins[i] = arm64.Decode(w)
	}
	b := &dblock{insns: ins}
	au := &proofAudit{}
	au.noteEnter(e.c, b, 0x4000)
	au.noteDispatch(e.c, 0x9999000) // exception vector, not the block
	st := ReadProofAudit()
	if au.active {
		t.Error("span survived a control discontinuity")
	}
	if st.Abandoned != 1 || st.Divergences != 0 {
		t.Errorf("abandoned = %d, divergences = %d, want 1, 0", st.Abandoned, st.Divergences)
	}
}
