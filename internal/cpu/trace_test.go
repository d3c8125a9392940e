package cpu

// Trace-compiler regression suite: stitching across direct branches and
// BL/RET pairs, the staleness chokepoints (self-modifying code inside a
// stitched trace, guest TLBI, ASID switches, cross-page invalidation), and
// the BlockCache cohort-eviction dependency drop. Every scenario runs the
// identical guest sequence with traces on and off and requires bit-identical
// emulated cycles, instruction counts, results and TLB statistics — the
// trace compiler may only remove host work, never emulated work.

import (
	"testing"

	"lightzone/internal/arm64"
	"lightzone/internal/mem"
)

// chainProgram is the canonical stitchable shape: a run of single-entry
// blocks linked by direct B edges plus a BL into a leaf whose RET balances
// the call, ending at HVC. One pass adds 15 to x0. Loop back-edges never
// stitch, so sumProgram-style loops are useless here.
func chainProgram() *arm64.Asm {
	a := arm64.NewAsm()
	a.MovImm(0, 0)
	a.B("b1")
	a.Label("b1")
	a.Emit(arm64.ADDImm(0, 0, 1, false))
	a.B("b2")
	a.Label("b2")
	a.Emit(arm64.ADDImm(0, 0, 2, false))
	a.BL("leaf")
	a.Emit(arm64.ADDImm(0, 0, 4, false))
	a.Emit(arm64.HVC(0))
	a.Label("leaf")
	a.Emit(arm64.ADDImm(0, 0, 8, false))
	a.Emit(arm64.RET(30))
	return a
}

// traceSig is the emulated identity surface the trace compiler must not move.
type traceSig struct {
	cycles, insns      int64
	x0                 uint64
	tlbHits, tlbMisses uint64
	codeHits           uint64
}

func sig(e *env) traceSig {
	return traceSig{
		cycles: e.c.Cycles, insns: e.c.Insns, x0: e.c.R(0),
		tlbHits: e.c.Stats.TLBHits, tlbMisses: e.c.Stats.TLBMisses,
		codeHits: e.c.Stats.CodeHits,
	}
}

func compareSigs(t *testing.T, on, off traceSig) {
	t.Helper()
	if on != off {
		t.Errorf("traced run diverged from block pipeline:\n  traces on  %+v\n  traces off %+v", on, off)
	}
}

// TestTraceStitchReplayIdentity checks the basic lifecycle: a chain of hot
// blocks stitches into one superblock (including the BL/RET pair), replays
// to completion, and stays bit-identical to the untraced pipeline.
func TestTraceStitchReplayIdentity(t *testing.T) {
	run := func(traces bool) traceSig {
		e := newEnv(t)
		e.c.SetTraces(traces)
		e.c.SetTraceHotThreshold(2)
		e.load(t, chainProgram())
		e.run(t, 1000)
		for i := 0; i < 4; i++ {
			e.rerun(t, 1000)
		}
		return sig(e)
	}
	before := ReadTraceStats()
	on := run(true)
	d := ReadTraceStats().Sub(before)
	off := run(false)
	compareSigs(t, on, off)
	if on.x0 != 15 {
		t.Errorf("x0 = %d, want 15", on.x0)
	}
	if d.Stitched == 0 {
		t.Fatal("hot chain never stitched")
	}
	if d.Entered == 0 || d.Completed == 0 {
		t.Errorf("trace never replayed to completion: %+v", d)
	}
	if d.InsnsRun == 0 {
		t.Error("no instructions retired inside traces")
	}
}

// TestTraceSnapshotShape checks the observation surface on a live trace:
// member shape, epoch/dependency validity, and the per-step PC/raw lists.
func TestTraceSnapshotShape(t *testing.T) {
	e := newEnv(t)
	e.c.SetTraceHotThreshold(2)
	e.load(t, chainProgram())
	// First-touch decodes don't count as hot entries, so threshold 2
	// stitches on the third pass.
	e.run(t, 1000)
	e.rerun(t, 1000)
	e.rerun(t, 1000)
	if e.c.TraceCacheLen() == 0 {
		t.Fatal("no trace stitched")
	}
	var entry *TraceInfo
	for i, ti := range e.c.TraceSnapshot() {
		if ti.EntryPC == uint64(codeVA) {
			entry = &e.c.TraceSnapshot()[i]
		}
	}
	if entry == nil {
		t.Fatalf("no trace keyed at the program entry: %+v", e.c.TraceSnapshot())
	}
	// MovImm(0,0)+B, ADD+B, ADD+BL, ADD+RET, ADD+HVC: 5 blocks, 10 insns.
	if entry.Blocks != 5 || entry.Insns != 10 || entry.Pages != 1 {
		t.Errorf("trace shape = %d blocks / %d insns / %d pages, want 5/10/1", entry.Blocks, entry.Insns, entry.Pages)
	}
	if !entry.EpochOK || !entry.DepsOK {
		t.Errorf("fresh trace not live: %+v", entry)
	}
	if len(entry.PCs) != entry.Insns || len(entry.Raw) != entry.Insns {
		t.Errorf("step lists %d/%d, want %d", len(entry.PCs), len(entry.Raw), entry.Insns)
	}
	// Steps follow execution order: the BL's leaf precedes the return-site
	// block, so the final word is the continuation's HVC.
	if entry.PCs[0] != uint64(codeVA) || entry.Raw[len(entry.Raw)-1] != arm64.HVC(0) {
		t.Errorf("step order wrong: first PC %#x, last word %#x", entry.PCs[0], entry.Raw[len(entry.Raw)-1])
	}
}

// TestTraceSMCInsideStitchedTrace executes a store that rewrites an earlier
// instruction of the *currently running* trace: the post-dispatch generation
// check must side-exit, the epoch hook must drop the trace, the rewritten
// code must run on the next pass, and a warm re-stitch must follow — all
// bit-identical to the untraced pipeline.
func TestTraceSMCInsideStitchedTrace(t *testing.T) {
	// x9 is the patchable immediate. The tail block counts runs in the data
	// page and CSELs the store target: the scratch slot at dataVA+8 on most
	// runs, and the entry MOVZ — rewriting x9 = 1 into x9 = 2 — on runs 4
	// and 5. Run 4 is the first *traced* pass under threshold 2, so the first
	// patch fires from inside the stitched trace (side-exit); the second
	// patch bumps the page epoch again, clearing the one-instruction suffix
	// block the side-exit resume decoded at the HVC — that fragment shadows
	// the tail block's rebuild, and only its eviction lets the full chain
	// re-form and re-stitch.
	prog := func() *arm64.Asm {
		a := arm64.NewAsm()
		a.Label("entry")
		a.Emit(arm64.MOVZ(9, 1, 0))
		a.B("mid")
		a.Label("mid")
		a.Emit(arm64.ADDReg(0, 0, 9))
		a.B("tail")
		a.Label("tail")
		a.MovImm(10, uint64(dataVA))
		a.Emit(arm64.LDRImm(5, 10, 0, 3))
		a.Emit(arm64.ADDImm(5, 5, 1, false))
		a.Emit(arm64.STRImm(5, 10, 0, 3))
		a.Emit(arm64.UBFM(6, 5, 1, 63)) // x6 = run >> 1
		a.Emit(arm64.SUBSImm(6, 6, 2))  // Z set on runs 4 and 5
		a.ADR(1, "entry")
		a.MovImm(3, uint64(dataVA)+8)
		a.Emit(arm64.CSEL(4, 1, 3, arm64.CondEQ))
		a.MovImm(2, uint64(arm64.MOVZ(9, 2, 0)))
		a.Emit(arm64.STRImm(2, 4, 0, 2))
		a.Emit(arm64.HVC(0))
		return a
	}
	const runs = 9
	run := func(traces bool) traceSig {
		e := newEnv(t)
		e.c.SetTraces(traces)
		e.c.SetTraceHotThreshold(2)
		e.load(t, prog())
		e.run(t, 1000)
		for i := 1; i < runs; i++ {
			e.rerun(t, 1000)
		}
		return sig(e)
	}
	before := ReadTraceStats()
	on := run(true)
	d := ReadTraceStats().Sub(before)
	off := run(false)
	compareSigs(t, on, off)
	// Runs 1-4 add 1 (the patch lands after the ADD of run 4), runs 5-9 add 2.
	if want := uint64(4 + 5*2); on.x0 != want {
		t.Errorf("x0 = %d, want %d (stale traced code executed?)", on.x0, want)
	}
	if d.Stitched < 2 {
		t.Errorf("stitched %d times, want >= 2 (no re-stitch after the rewrite)", d.Stitched)
	}
	if d.Invalidated == 0 {
		t.Error("in-trace code rewrite did not invalidate the trace")
	}
	if d.SideExits == 0 {
		t.Error("in-trace code rewrite did not side-exit the running trace")
	}
	if d.Completed == 0 {
		t.Error("re-stitched trace never ran to completion")
	}
}

// TestTraceGuestTLBIMidTraceLifetime stitches the chain, then has the guest
// execute a TLBI from a separate entry point while the trace is live: the
// wholesale invalidation bumps every code-page generation the entry guard
// froze, dropping the trace cache mid-lifetime. (A TLBI cannot live *inside*
// a trace — it is in the never-stitch-across terminator class, and a block
// that invalidates everything each pass never gets hot in the first place.)
// The chain must re-decode, re-stitch and replay bit-identically afterwards.
func TestTraceGuestTLBIMidTraceLifetime(t *testing.T) {
	prog := chainProgram()
	prog.Label("tlbi")
	prog.Emit(arm64.TLBIVMALLE1())
	prog.Emit(arm64.HVC(0))
	tlbiOff, err := prog.Offset("tlbi")
	if err != nil {
		t.Fatal(err)
	}
	run := func(traces bool) traceSig {
		e := newEnv(t)
		e.c.SetTraces(traces)
		e.c.SetTraceHotThreshold(2)
		e.load(t, prog)
		// Decode, hot, stitch, traced pass.
		e.run(t, 1000)
		for i := 0; i < 3; i++ {
			e.rerun(t, 1000)
		}
		// Guest TLBI from its own entry point while the trace is live.
		e.c.SetEL(arm64.EL1)
		e.c.PC = uint64(codeVA) + uint64(tlbiOff)
		e.run(t, 100)
		// Everything re-decodes from scratch: decode, hot, stitch, traced.
		for i := 0; i < 4; i++ {
			e.rerun(t, 1000)
		}
		return sig(e)
	}
	before := ReadTraceStats()
	on := run(true)
	d := ReadTraceStats().Sub(before)
	off := run(false)
	compareSigs(t, on, off)
	if want := uint64(15); on.x0 != want {
		t.Errorf("x0 = %d, want %d", on.x0, want)
	}
	if d.Stitched < 2 {
		t.Errorf("stitched %d times, want >= 2 (TLBI must force a re-stitch)", d.Stitched)
	}
	if d.Invalidated == 0 {
		t.Error("guest TLBI did not invalidate the stitched trace")
	}
	if d.Completed < 2 {
		t.Errorf("completed %d traced passes, want >= 2 (before and after the TLBI)", d.Completed)
	}
}

// TestTraceASIDSwitchKeysSeparately runs the same chain under two address
// spaces (same code frame, ASIDs 1 and 2): each context stitches its own
// trace, and switching between them must never invalidate either — the
// context tuple is part of the trace key, so the first space's trace replays
// untouched after a round trip through the second.
func TestTraceASIDSwitchKeysSeparately(t *testing.T) {
	run := func(traces bool) (traceSig, *env) {
		e := newEnv(t)
		e.c.SetTraces(traces)
		e.c.SetTraceHotThreshold(2)
		s1b, err := mem.NewStage1(e.pm, 2)
		if err != nil {
			t.Fatal(err)
		}
		codeRes, err := e.s1.Walk(codeVA)
		if err != nil || !codeRes.Found {
			t.Fatalf("code page missing: %v", err)
		}
		if err := s1b.Map(codeVA, codeRes.PA, mem.AttrNG); err != nil {
			t.Fatal(err)
		}
		e.load(t, chainProgram())
		ttbrA := MakeTTBR(uint64(e.s1.Root()), e.s1.ASID())
		ttbrB := MakeTTBR(uint64(s1b.Root()), 2)
		e.run(t, 1000)
		// Three more A passes (hot, stitch, enter), four B passes (decode,
		// hot, stitch, enter), then back to A: its trace must still be live.
		for _, ttbr := range []uint64{ttbrA, ttbrA, ttbrA, ttbrB, ttbrB, ttbrB, ttbrB, ttbrA} {
			e.c.SetSys(arm64.TTBR0EL1, ttbr)
			e.rerun(t, 1000)
		}
		return sig(e), e
	}
	before := ReadTraceStats()
	on, e := run(true)
	d := ReadTraceStats().Sub(before)
	off, _ := run(false)
	compareSigs(t, on, off)
	asids := map[uint16]bool{}
	for _, ti := range e.c.TraceSnapshot() {
		if ti.EntryPC == uint64(codeVA) {
			asids[ti.ASID] = true
		}
	}
	if !asids[1] || !asids[2] {
		t.Errorf("entry traces exist for ASIDs %v, want both 1 and 2", asids)
	}
	if d.Invalidated != 0 {
		t.Errorf("ASID switching invalidated %d traces; context-keyed traces must survive", d.Invalidated)
	}
	if d.Stitched < 2 || d.Entered < 2 {
		t.Errorf("stitch/enter = %d/%d, want both contexts traced: %+v", d.Stitched, d.Entered, d)
	}
}

// TestTraceCrossPageSecondPageInvalidation stitches a trace spanning two
// code pages and invalidates only the second: the page dependency index must
// drop the trace even though its entry page is untouched, and the rerun must
// re-stitch bit-identically.
func TestTraceCrossPageSecondPageInvalidation(t *testing.T) {
	load2 := func(e *env) {
		// Page 0: add 1, branch to the start of page 1 (B covers the gap).
		page0 := arm64.NewAsm()
		page0.Emit(arm64.ADDImm(0, 0, 1, false))
		page0.Emit(arm64.B(int64(mem.PageSize) - arm64.InsnBytes))
		e.load(t, page0)
		// Page 1: add 2, exit.
		va := codeVA + mem.VA(mem.PageSize)
		pa, err := e.pm.AllocFrame()
		if err != nil {
			t.Fatal(err)
		}
		if err := e.s1.Map(va, pa, mem.AttrNG); err != nil {
			t.Fatal(err)
		}
		page1, err := arm64.NewAsm().
			Emit(arm64.ADDImm(0, 0, 2, false)).
			Emit(arm64.HVC(0)).Bytes()
		if err != nil {
			t.Fatal(err)
		}
		if err := e.pm.Write(pa, page1); err != nil {
			t.Fatal(err)
		}
	}
	run := func(traces bool) traceSig {
		e := newEnv(t)
		e.c.SetTraces(traces)
		e.c.SetTraceHotThreshold(2)
		load2(e)
		e.run(t, 1000)
		e.rerun(t, 1000)
		e.rerun(t, 1000) // stitch pass
		if traces {
			found := false
			for _, ti := range e.c.TraceSnapshot() {
				if ti.EntryPC == uint64(codeVA) && ti.Pages == 2 {
					found = true
				}
			}
			if !found {
				t.Fatalf("no two-page trace stitched: %+v", e.c.TraceSnapshot())
			}
			live := e.c.TraceCacheLen()
			e.c.InvalidateCode(codeVA + mem.VA(mem.PageSize))
			if got := e.c.TraceCacheLen(); got >= live {
				t.Errorf("second-page invalidation left %d of %d traces live", got, live)
			}
		} else {
			e.c.InvalidateCode(codeVA + mem.VA(mem.PageSize))
		}
		// Re-decode the bumped page, re-stitch, and replay the fresh trace.
		for i := 0; i < 3; i++ {
			e.rerun(t, 1000)
		}
		return sig(e)
	}
	before := ReadTraceStats()
	on := run(true)
	d := ReadTraceStats().Sub(before)
	off := run(false)
	compareSigs(t, on, off)
	// x0 accumulates 3 per pass across the six passes (no reset in this
	// program).
	if on.x0 != 18 {
		t.Errorf("x0 = %d, want 18", on.x0)
	}
	if d.Invalidated == 0 {
		t.Error("cross-page trace survived second-page invalidation")
	}
	if d.Stitched < 2 {
		t.Errorf("stitched %d times, want a re-stitch after the invalidation", d.Stitched)
	}
}

// TestTraceBlockEvictionDropsDependents overflows the BlockCache so cohort
// eviction claims the stitched chain's member blocks: the block dependency
// index must drop the trace (a dangling trace would keep replaying blocks
// the cache no longer owns), and the tail replay of the original program
// must re-decode and re-stitch bit-identically.
func TestTraceBlockEvictionDropsDependents(t *testing.T) {
	const sweepPages = maxCachedBlocks/1024 + 1
	// loadSweepAbove fills pages 1..sweepPages above the program page with
	// single-instruction `B #4` blocks (the loadBlockSweep shape, offset up
	// one page so the chain program survives), ending in HVC.
	loadSweepAbove := func(e *env) {
		const bPlus4 = 0x14000001
		for p := 1; p <= sweepPages; p++ {
			va := codeVA + mem.VA(uint64(p)*uint64(mem.PageSize))
			pa, err := e.pm.AllocFrame()
			if err != nil {
				t.Fatal(err)
			}
			if err := e.s1.Map(va, pa, mem.AttrNG); err != nil {
				t.Fatal(err)
			}
			buf := make([]byte, mem.PageSize)
			for i := 0; i < len(buf); i += 4 {
				w := uint32(bPlus4)
				if p == sweepPages && i == len(buf)-4 {
					w = arm64.HVC(0)
				}
				buf[i] = byte(w)
				buf[i+1] = byte(w >> 8)
				buf[i+2] = byte(w >> 16)
				buf[i+3] = byte(w >> 24)
			}
			if err := e.pm.Write(pa, buf); err != nil {
				t.Fatal(err)
			}
		}
	}
	const sweepInsns = sweepPages * 1024
	run := func(traces bool) traceSig {
		e := newEnv(t)
		e.c.SetTraces(traces)
		e.c.SetTraceHotThreshold(2)
		e.load(t, chainProgram())
		loadSweepAbove(e)
		e.run(t, 1000)
		e.rerun(t, 1000)
		e.rerun(t, 1000) // stitch pass
		e.rerun(t, 1000) // traced pass
		if traces && e.c.TraceCacheLen() == 0 {
			t.Fatal("chain never stitched before the sweep")
		}
		// Sweep enough distinct blocks to overflow the cache and evict the
		// oldest cohort — which contains the chain's member blocks.
		e.c.SetEL(arm64.EL1)
		e.c.PC = uint64(codeVA) + uint64(mem.PageSize)
		e.run(t, sweepInsns+10)
		if traces {
			for _, ti := range e.c.TraceSnapshot() {
				if ti.EntryPC == uint64(codeVA) {
					t.Errorf("trace dangles after its blocks were cohort-evicted: %+v", ti)
				}
			}
		}
		// Tail replay of the original program: re-decode, re-stitch, rerun.
		for i := 0; i < 3; i++ {
			e.rerun(t, 1000)
		}
		return sig(e)
	}
	before := ReadTraceStats()
	on := run(true)
	d := ReadTraceStats().Sub(before)
	off := run(false)
	compareSigs(t, on, off)
	if on.x0 != 15 {
		t.Errorf("tail replay x0 = %d, want 15", on.x0)
	}
	if d.Invalidated == 0 {
		t.Error("cohort eviction did not drop the dependent trace")
	}
	if d.Stitched < 2 {
		t.Errorf("stitched %d times, want a re-stitch after eviction", d.Stitched)
	}
}

// TestTraceToggleAndDefaults covers the control surface: SetTraces(false)
// drops stitched traces and stops stitching, the process-wide default seeds
// new vCPUs (the lzbench -notrace path), and new vCPUs stitch at
// defaultTraceHot.
func TestTraceToggleAndDefaults(t *testing.T) {
	e := newEnv(t)
	e.c.SetTraceHotThreshold(2)
	if !e.c.TracesEnabled() {
		t.Fatal("traces not enabled by default")
	}
	e.load(t, chainProgram())
	e.run(t, 1000)
	e.rerun(t, 1000)
	e.rerun(t, 1000)
	if e.c.TraceCacheLen() == 0 {
		t.Fatal("no trace stitched")
	}
	e.c.SetTraces(false)
	if e.c.TracesEnabled() || e.c.TraceCacheLen() != 0 {
		t.Errorf("disable left %d traces live", e.c.TraceCacheLen())
	}
	e.rerun(t, 1000)
	if e.c.TraceCacheLen() != 0 {
		t.Error("disabled compiler stitched a trace")
	}
	if e.c.R(0) != 15 {
		t.Errorf("x0 = %d, want 15", e.c.R(0))
	}

	oldOn := TraceDefault()
	defer SetTraceDefault(oldOn)
	SetTraceDefault(false)
	if New(arm64.ProfileCortexA55(), mem.NewPhysMem(1<<20)).TracesEnabled() {
		t.Error("new vCPU ignored the disabled trace default")
	}
	SetTraceDefault(true)
	c := New(arm64.ProfileCortexA55(), mem.NewPhysMem(1<<20))
	if !c.TracesEnabled() {
		t.Error("new vCPU ignored the enabled trace default")
	}
	if c.tcache.threshold != defaultTraceHot {
		t.Errorf("new vCPU stitch threshold = %d, want %d", c.tcache.threshold, defaultTraceHot)
	}
}
