package cpu

import (
	"testing"

	"lightzone/internal/arm64"
	"lightzone/internal/mem"
)

// TestHostFastpathMatrixIdentity runs the same program under every
// combination of {host fastpaths, decode cache} and requires bit-identical
// emulated cycles, instruction counts, results and TLB statistics — the
// fastpaths may only remove host work, never emulated work.
func TestHostFastpathMatrixIdentity(t *testing.T) {
	type sig struct {
		cycles, insns      int64
		sum                uint64
		tlbHits, tlbMisses uint64
		codeHits           uint64
	}
	run := func(fast, decode bool) sig {
		e := newEnv(t)
		e.c.SetHostFastpaths(fast)
		e.c.SetDecodeCache(decode)
		e.load(t, sumProgram(100))
		e.run(t, 10000)
		return sig{
			cycles: e.c.Cycles, insns: e.c.Insns, sum: e.c.R(0),
			tlbHits: e.c.Stats.TLBHits, tlbMisses: e.c.Stats.TLBMisses,
			codeHits: e.c.Stats.CodeHits,
		}
	}
	base := run(false, true)
	for _, m := range []struct {
		name         string
		fast, decode bool
	}{
		{"fast+decode", true, true},
		{"fast-only", true, false},
		{"neither", false, false},
	} {
		got := run(m.fast, m.decode)
		if got.cycles != base.cycles || got.insns != base.insns || got.sum != base.sum {
			t.Errorf("%s: cycles/insns/sum = %d/%d/%d, want %d/%d/%d",
				m.name, got.cycles, got.insns, got.sum, base.cycles, base.insns, base.sum)
		}
		if got.tlbHits != base.tlbHits || got.tlbMisses != base.tlbMisses {
			t.Errorf("%s: TLB hits/misses = %d/%d, want %d/%d",
				m.name, got.tlbHits, got.tlbMisses, base.tlbHits, base.tlbMisses)
		}
		if m.decode && got.codeHits != base.codeHits {
			t.Errorf("%s: code hits = %d, want %d", m.name, got.codeHits, base.codeHits)
		}
	}
}

// TestMicroTLBStaleAfterTLBEviction floods the real TLB past its capacity
// (evicting the program's entries via FIFO replacement) and checks the
// micro-TLBs observe the generation bump: the next fetch must miss the
// fastpath, and the re-walked rerun must cost exactly what the slow path
// costs.
func TestMicroTLBStaleAfterTLBEviction(t *testing.T) {
	flood := func(e *env) {
		for i := 0; i < e.c.Prof.TLBCapacity+8; i++ {
			va := mem.VA(0x1000000 + uint64(i)*uint64(mem.PageSize))
			e.c.TLB.Insert(0, 7, va, mem.TLBEntry{S1Desc: mem.AttrNG, BlockShift: mem.PageShift})
		}
	}
	run := func(fast bool) (int64, int64, uint64) {
		e := newEnv(t)
		e.c.SetHostFastpaths(fast)
		e.load(t, sumProgram(20))
		e.run(t, 1000)
		if fast {
			iH, _, _, _ := e.c.MicroTLBStats()
			if iH == 0 {
				t.Error("hot loop took no I-side fastpath hits")
			}
		}
		flood(e)
		_, iM0, _, _ := e.c.MicroTLBStats()
		e.rerun(t, 1000)
		if fast {
			_, iM1, _, _ := e.c.MicroTLBStats()
			if iM1 == iM0 {
				t.Error("fetch after TLB eviction did not miss the micro-TLB")
			}
		}
		return e.c.Cycles, e.c.Insns, e.c.R(0)
	}
	onC, onI, onS := run(true)
	offC, offI, offS := run(false)
	if onC != offC || onI != offI || onS != offS {
		t.Errorf("fastpath on %d/%d/%d, off %d/%d/%d", onC, onI, onS, offC, offI, offS)
	}
}

// TestMicroTLBStaleAfterGuestTLBI executes a TLBI between two loads of the
// same address: the post-TLBI load must leave the fastpath (the TLB
// generation moved) and re-walk, with cycles identical to the slow path.
func TestMicroTLBStaleAfterGuestTLBI(t *testing.T) {
	run := func(fast bool) (int64, int64, uint64, uint64) {
		e := newEnv(t)
		e.c.SetHostFastpaths(fast)
		a := arm64.NewAsm()
		a.MovImm(1, uint64(dataVA))
		a.MovImm(2, 0xBEEF)
		a.Emit(arm64.STRImm(2, 1, 0, 3))
		a.Emit(arm64.LDRImm(3, 1, 0, 3))
		a.Emit(arm64.LDRImm(5, 1, 0, 3)) // second load takes the D fastpath
		a.Emit(arm64.TLBIVMALLE1())
		a.Emit(arm64.LDRImm(4, 1, 0, 3)) // generation moved: must re-walk
		a.Emit(arm64.HVC(0))
		e.load(t, a)
		e.run(t, 100)
		if fast {
			_, _, dH, dM := e.c.MicroTLBStats()
			if dH == 0 {
				t.Error("repeated load did not take the D-side fastpath")
			}
			if dM < 3 {
				t.Errorf("D-side misses = %d, want >= 3 (fill, perm upgrade, post-TLBI)", dM)
			}
		}
		return e.c.Cycles, e.c.Insns, e.c.R(3), e.c.R(4)
	}
	onC, onI, on3, on4 := run(true)
	offC, offI, off3, off4 := run(false)
	if on3 != 0xBEEF || on4 != 0xBEEF {
		t.Errorf("loads = %#x, %#x, want 0xBEEF", on3, on4)
	}
	if onC != offC || onI != offI || on3 != off3 || on4 != off4 {
		t.Errorf("fastpath on %d/%d, off %d/%d", onC, onI, offC, offI)
	}
}

// TestMicroTLBStaleAfterEpochBump checks the code-generation gate alone:
// InvalidateCode bumps the code epochs without touching the TLB, and the
// I-side micro entry must still go stale.
func TestMicroTLBStaleAfterEpochBump(t *testing.T) {
	run := func(fast bool) (int64, int64, uint64) {
		e := newEnv(t)
		e.c.SetHostFastpaths(fast)
		e.load(t, sumProgram(10))
		e.run(t, 1000)
		e.c.InvalidateCode(codeVA)
		_, iM0, _, _ := e.c.MicroTLBStats()
		e.rerun(t, 1000)
		if fast {
			_, iM1, _, _ := e.c.MicroTLBStats()
			if iM1 == iM0 {
				t.Error("fetch after code-epoch bump did not miss the micro-TLB")
			}
		}
		return e.c.Cycles, e.c.Insns, e.c.R(0)
	}
	onC, onI, onS := run(true)
	offC, offI, offS := run(false)
	if onC != offC || onI != offI || onS != offS {
		t.Errorf("fastpath on %d/%d/%d, off %d/%d/%d", onC, onI, onS, offC, offI, offS)
	}
}

// TestMicroTLBASIDSwitchMidRun switches TTBR0 (new root, new ASID) between
// two loads of the same VA mapped to different frames. The fastpath must
// not serve the old address space's translation after the switch.
func TestMicroTLBASIDSwitchMidRun(t *testing.T) {
	run := func(fast bool) (int64, int64, uint64, uint64) {
		e := newEnv(t)
		e.c.SetHostFastpaths(fast)
		// Second address space under ASID 2: same code page, its own data
		// frame preloaded with a distinct value.
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
		newData, err := e.pm.AllocFrame()
		if err != nil {
			t.Fatal(err)
		}
		if err := s1b.Map(dataVA, newData, mem.AttrNG|mem.AttrPXN|mem.AttrUXN); err != nil {
			t.Fatal(err)
		}
		if err := e.pm.Write(newData, []byte{0x22, 0x22, 0, 0, 0, 0, 0, 0}); err != nil {
			t.Fatal(err)
		}

		a := arm64.NewAsm()
		a.MovImm(1, uint64(dataVA))
		a.MovImm(2, 0x1111)
		a.Emit(arm64.STRImm(2, 1, 0, 3))
		a.Emit(arm64.LDRImm(3, 1, 0, 3)) // old space: 0x1111
		a.MovImm(4, MakeTTBR(uint64(s1b.Root()), 2))
		a.Emit(arm64.MSR(arm64.TTBR0EL1, 4))
		a.Emit(arm64.LDRImm(5, 1, 0, 3)) // new space: 0x2222
		a.Emit(arm64.HVC(0))
		e.load(t, a)
		e.run(t, 100)
		if fast {
			found := false
			for _, en := range e.c.MicroTLBSnapshot() {
				if en.Valid && en.ASID == 2 && en.Page == uint64(dataVA)>>mem.PageShift {
					found = true
				}
			}
			if !found {
				t.Errorf("no valid post-switch micro-TLB entry for the data page under ASID 2: %+v",
					e.c.MicroTLBSnapshot())
			}
		}
		return e.c.Cycles, e.c.Insns, e.c.R(3), e.c.R(5)
	}
	onC, onI, on3, on5 := run(true)
	offC, offI, off3, off5 := run(false)
	if on3 != 0x1111 || on5 != 0x2222 {
		t.Errorf("loads = %#x, %#x, want 0x1111 then 0x2222 (stale translation served?)", on3, on5)
	}
	if onC != offC || onI != offI || on3 != off3 || on5 != off5 {
		t.Errorf("fastpath on %d/%d %#x/%#x, off %d/%d %#x/%#x",
			onC, onI, on3, on5, offC, offI, off3, off5)
	}
}

// TestMicroTLBPANFlipStalesDataEntry caches a user-page translation under
// PAN clear, flips PAN, and re-touches the page: the access must take the
// slow path and fault exactly like the fastpath-off pipeline.
func TestMicroTLBPANFlipStalesDataEntry(t *testing.T) {
	run := func(fast bool) (int64, int64, Syndrome) {
		e := newEnv(t)
		e.c.SetHostFastpaths(fast)
		a := arm64.NewAsm()
		a.MovImm(1, uint64(userVA))
		a.Emit(arm64.MSRPan(0))
		a.Emit(arm64.LDRImm(2, 1, 0, 3))
		a.Emit(arm64.LDRImm(3, 1, 0, 3)) // second load takes the D fastpath
		a.Emit(arm64.MSRPan(1))
		a.Emit(arm64.LDRImm(4, 1, 0, 3)) // must fault despite the cached entry
		a.Emit(arm64.HVC(0))
		e.load(t, a)
		exit := e.run(t, 100)
		if fast {
			_, _, dH, _ := e.c.MicroTLBStats()
			if dH == 0 {
				t.Error("repeated load did not take the D-side fastpath")
			}
		}
		return e.c.Cycles, e.c.Insns, exit.Syndrome
	}
	onC, onI, onS := run(true)
	offC, offI, offS := run(false)
	if onS.Class != ECDataAbortSame || onS.Kind != mem.FaultPermission || onS.VA != userVA {
		t.Fatalf("post-PAN access syndrome = %+v, want same-EL permission abort at %v", onS, userVA)
	}
	if onS != offS {
		t.Errorf("syndromes differ: fastpath on %+v, off %+v", onS, offS)
	}
	if onC != offC || onI != offI {
		t.Errorf("fastpath on %d/%d, off %d/%d", onC, onI, offC, offI)
	}
}

// TestMicroTLBUnprivNeverFastpaths checks that LDTR-class accesses bypass
// the micro-TLB entirely: an unprivileged load after a PAN flip must run
// the full Translate (its permission verdict uses the unpriv override) and
// still succeed, never consuming the cached privileged entry.
func TestMicroTLBUnprivNeverFastpaths(t *testing.T) {
	run := func(fast bool) (int64, int64, uint64) {
		e := newEnv(t)
		e.c.SetHostFastpaths(fast)
		a := arm64.NewAsm()
		a.MovImm(1, uint64(userVA))
		a.MovImm(2, 0x77)
		a.Emit(arm64.MSRPan(0))
		a.Emit(arm64.STRImm(2, 1, 0, 3))
		a.Emit(arm64.LDRImm(3, 1, 0, 3))
		a.Emit(arm64.LDRImm(5, 1, 0, 3)) // D fastpath hit under pan clear
		a.Emit(arm64.MSRPan(1))
		a.Emit(arm64.LDTR(4, 1, 0, 3)) // unpriv: bypasses PAN and the fastpath
		a.Emit(arm64.HVC(0))
		e.load(t, a)
		e.run(t, 100)
		if fast {
			_, _, dH, _ := e.c.MicroTLBStats()
			if dH != 1 {
				t.Errorf("D-side hits = %d, want exactly 1 (LDTR must not hit)", dH)
			}
		}
		return e.c.Cycles, e.c.Insns, e.c.R(4)
	}
	onC, onI, on4 := run(true)
	offC, offI, off4 := run(false)
	if on4 != 0x77 {
		t.Errorf("LDTR loaded %#x, want 0x77", on4)
	}
	if onC != offC || onI != offI || on4 != off4 {
		t.Errorf("fastpath on %d/%d/%#x, off %d/%d/%#x", onC, onI, on4, offC, offI, off4)
	}
}

// TestMicroTLBSelfModifyingCodeIdentity runs the JIT-rewrite flow (an
// emulated store over an already-executed instruction) with fastpaths on and
// off: the rewritten code must execute, at identical cost.
func TestMicroTLBSelfModifyingCodeIdentity(t *testing.T) {
	patch := func() *arm64.Asm {
		a := arm64.NewAsm()
		a.B("main")
		a.Label("patch")
		a.Emit(arm64.MOVZ(0, 1, 0)) // x0 = 1; rewritten to x0 = 2 below
		a.Emit(arm64.RET(30))
		a.Label("main")
		a.BL("patch")
		a.Emit(arm64.ADDReg(9, 0, 31))
		a.ADR(1, "patch")
		a.MovImm(2, uint64(arm64.MOVZ(0, 2, 0)))
		a.Emit(arm64.STRImm(2, 1, 0, 2))
		a.BL("patch") // second run must produce x0 = 2
		a.Emit(arm64.HVC(0))
		return a
	}
	run := func(fast bool) (int64, int64, uint64, uint64) {
		e := newEnv(t)
		e.c.SetHostFastpaths(fast)
		e.load(t, patch())
		e.run(t, 1000)
		return e.c.Cycles, e.c.Insns, e.c.R(9), e.c.R(0)
	}
	onC, onI, on9, on0 := run(true)
	offC, offI, off9, off0 := run(false)
	if on9 != 1 || on0 != 2 {
		t.Errorf("patched run: first=%d final=%d, want 1 then 2 (stale code executed?)", on9, on0)
	}
	if onC != offC || onI != offI || on9 != off9 || on0 != off0 {
		t.Errorf("fastpath on %d/%d, off %d/%d", onC, onI, offC, offI)
	}
}

// TestMicroTLBSnapshotAndToggle covers the observation surface: snapshot
// shape, the I-side entry after a hot run, and SetHostFastpaths dropping
// both entries.
func TestMicroTLBSnapshotAndToggle(t *testing.T) {
	e := newEnv(t)
	if !e.c.HostFastpathsEnabled() {
		t.Fatal("fastpaths not enabled by default")
	}
	e.load(t, sumProgram(10))
	e.run(t, 1000)
	snap := e.c.MicroTLBSnapshot()
	if len(snap) != iMicroWays+dMicroWays {
		t.Fatalf("snapshot shape = %+v", snap)
	}
	for w, en := range snap {
		want := "D"
		if w < iMicroWays {
			want = "I"
		}
		if en.Side != want {
			t.Fatalf("snapshot shape = %+v", snap)
		}
	}
	var i MicroTLBEntry
	for _, en := range snap[:iMicroWays] {
		if en.Valid && en.Page == uint64(codeVA)>>mem.PageShift {
			i = en
		}
	}
	if !i.Valid || !i.OkX || !i.Priv {
		t.Errorf("no live I entry for the code page: %+v", snap[:iMicroWays])
	}
	if i.TLBGen != e.c.TLB.Gen() {
		t.Errorf("I entry generation %d, TLB at %d", i.TLBGen, e.c.TLB.Gen())
	}
	iH, _, _, _ := e.c.MicroTLBStats()
	if iH == 0 {
		t.Error("hot run recorded no I-side fastpath hits")
	}
	e.c.SetHostFastpaths(false)
	if e.c.HostFastpathsEnabled() {
		t.Error("still enabled after disable")
	}
	for _, en := range e.c.MicroTLBSnapshot() {
		if en.Valid {
			t.Errorf("%s entry survived disable", en.Side)
		}
	}
}
