package verify_test

import (
	"encoding/binary"
	"reflect"
	"testing"

	"lightzone/internal/arm64"
	"lightzone/internal/core"
	"lightzone/internal/mem"
	"lightzone/internal/verify"
	"lightzone/internal/workload"
)

// memoMachine runs the 8-domain scalable-TTBR benchmark to completion and
// returns the machine with its LightZone process intact.
func memoMachine(t *testing.T) *workload.Env {
	t.Helper()
	cfg := workload.DomainSwitchConfig{
		Platform: workload.AllPlatforms()[0], Variant: workload.VariantLZTTBR,
		Domains: 8, Iters: 64, Seed: workload.Table5Seed,
	}
	env, p, err := workload.PrepareDomainSwitch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := env.Run(p, workload.DomainSwitchBudget(cfg)); err != nil {
		t.Fatal(err)
	}
	if len(env.LZ.Procs()) != 1 || len(env.LZ.Procs()[0].Gates()) == 0 {
		t.Fatal("benchmark left no LightZone process with gates")
	}
	return env
}

// warmMemo verifies the clean machine twice with mo and checks that the
// second run took no slow path at all.
func warmMemo(t *testing.T, s *verify.Snapshot, mo *verify.Memo) {
	t.Helper()
	if rep := verify.RunMemo(s, mo); !rep.Clean() {
		t.Fatalf("clean machine reported findings: %v", rep.Findings)
	}
	c0, s0, g0 := mo.SlowPaths()
	if rep := verify.RunMemo(s, mo); !rep.Clean() {
		t.Fatalf("clean machine reported findings on the warm run: %v", rep.Findings)
	}
	if c1, s1, g1 := mo.SlowPaths(); c1 != c0 || s1 != s0 || g1 != g0 {
		t.Fatalf("warm run on an unchanged machine recomputed: cfg %d→%d, sanitizer %d→%d, gates %d→%d",
			c0, c1, s0, s1, g0, g1)
	}
}

// memoised runs the registry with mo and checks the report equals a run
// with a fresh memo over the same snapshot.
func memoised(t *testing.T, s *verify.Snapshot, mo *verify.Memo) verify.Report {
	t.Helper()
	got := verify.RunMemo(s, mo)
	if want := verify.Run(s); !reflect.DeepEqual(got, want) {
		t.Fatalf("memoised report differs from a fresh one:\n got %+v\nwant %+v", got, want)
	}
	return got
}

func capture(t *testing.T, env *workload.Env) *verify.Snapshot {
	t.Helper()
	s, err := verify.Capture(env.M, env.LZ)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func findingsAt(rep verify.Report, checker string, va uint64) int {
	n := 0
	for _, f := range rep.Findings {
		if f.Checker == checker && f.VA == va {
			n++
		}
	}
	return n
}

// ttbr1PA resolves a TTBR1-half VA of the process to its real address.
func ttbr1PA(t *testing.T, lp *core.LZProc, va uint64) mem.PA {
	t.Helper()
	res, err := lp.TTBR1Table().Walk(mem.VA(va))
	if err != nil || !res.Found {
		t.Fatalf("TTBR1 VA %#x not mapped: %v", va, err)
	}
	real, ok := lp.Fake().RealOf(mem.IPA(res.Desc & mem.OAMask))
	if !ok {
		t.Fatalf("no real frame behind TTBR1 VA %#x", va)
	}
	return real + mem.PA(va&mem.PageMask)
}

// A sensitive word written into a reachable executable page after the memo
// is warm must be found by both the sanitizer sweep and the CFG at its VA,
// and reverting it must make the memoised report clean again.
func TestMemoInvalidatesOnExecPageWrite(t *testing.T) {
	env := memoMachine(t)
	lp := env.LZ.Procs()[0]
	mo := verify.NewMemo()
	warmMemo(t, capture(t, env), mo)
	held := mo.Held()

	d0, _ := lp.PageTable(0)
	va := lp.ExecCleanPages()[0]
	walk, err := d0.S1.Walk(va)
	if err != nil || !walk.Found {
		t.Fatalf("exec page %v not mapped in the base table", va)
	}
	real, ok := lp.Fake().RealOf(mem.IPA(walk.Desc & mem.OAMask))
	if !ok {
		t.Fatalf("no real frame behind exec page %v", va)
	}
	var orig, bad [4]byte
	binary.LittleEndian.PutUint32(bad[:], arm64.TLBIVMALLE1())
	if err := env.M.PM.Read(real, orig[:]); err != nil {
		t.Fatal(err)
	}
	if err := env.M.PM.Write(real, bad[:]); err != nil {
		t.Fatal(err)
	}
	rep := memoised(t, capture(t, env), mo)
	for _, c := range []string{"sanitizer-sweep", "cfg-reachability"} {
		if findingsAt(rep, c, uint64(va)) == 0 {
			t.Errorf("%s did not flag the word written at %v: %v", c, va, rep.Findings)
		}
	}

	if err := env.M.PM.Write(real, orig[:]); err != nil {
		t.Fatal(err)
	}
	if rep := memoised(t, capture(t, env), mo); !rep.Clean() {
		t.Fatalf("reverted machine still reports findings: %v", rep.Findings)
	}
	if mo.Held() != held {
		t.Errorf("memo holds %d entries after the tamper and revert, %d after a clean run", mo.Held(), held)
	}
}

// Rewriting the TTBRTab slot a gate loads changes one oracle answer and
// nothing in the proof's key: the memoised proof must fail its read-set
// check, so gate-semantics fires at the gate.
func TestMemoRevalidatesGateOracleReads(t *testing.T) {
	env := memoMachine(t)
	lp := env.LZ.Procs()[0]
	mo := verify.NewMemo()
	warmMemo(t, capture(t, env), mo)
	held := mo.Held()

	g := lp.Gates()[0]
	slotPA := ttbr1PA(t, lp, core.TTBRTabBase()+uint64(g.PGTID)*8)
	orig, err := env.M.PM.ReadU64(slotPA)
	if err != nil {
		t.Fatal(err)
	}
	if err := env.M.PM.WriteU64(slotPA, orig^0x1000); err != nil {
		t.Fatal(err)
	}
	_, _, g0 := mo.SlowPaths()
	rep := memoised(t, capture(t, env), mo)
	gateVA := core.GateCodeBase() + uint64(g.ID)*core.GateSlotLen
	fired := 0
	for _, f := range rep.Findings {
		if f.Checker == "gate-semantics" && f.VA >= gateVA && f.VA < gateVA+core.GateSlotLen {
			fired++
		}
	}
	if fired == 0 {
		t.Errorf("gate-semantics did not flag gate %d after its TTBRTab slot changed: %v", g.ID, rep.Findings)
	}
	if _, _, g1 := mo.SlowPaths(); g1 == g0 {
		t.Error("no gate proof was recomputed after an oracle-visible word changed")
	}

	if err := env.M.PM.WriteU64(slotPA, orig); err != nil {
		t.Fatal(err)
	}
	if rep := memoised(t, capture(t, env), mo); !rep.Clean() {
		t.Fatalf("reverted machine still reports findings: %v", rep.Findings)
	}
	if mo.Held() != held {
		t.Errorf("memo holds %d entries after the tamper and revert, %d after a clean run", mo.Held(), held)
	}
}

// The TTBRTab window bounds what the gate oracle may read, so they key the
// proof: shrinking the window must recompute the proofs (which then cannot
// prove the TTBR0 value), and so must growing it, even though no answer the
// proofs saw changes.
func TestMemoRecomputesGateProofOnWindowChange(t *testing.T) {
	env := memoMachine(t)
	s := capture(t, env)
	mo := verify.NewMemo()
	warmMemo(t, s, mo)
	p := &s.Procs[0]
	window := p.TTBRTabPAs

	// Grow first, from the warm state: every answer the proofs saw is
	// unchanged, so only the key can tell the window moved.
	_, _, g0 := mo.SlowPaths()
	p.TTBRTabPAs = append(append([]mem.PA(nil), window...), window[len(window)-1])
	if rep := memoised(t, s, mo); !rep.Clean() {
		t.Fatalf("grown window reports findings: %v", rep.Findings)
	}
	_, _, g1 := mo.SlowPaths()
	if g1-g0 != len(p.Gates) {
		t.Errorf("grown window recomputed %d of %d gate proofs", g1-g0, len(p.Gates))
	}

	p.TTBRTabPAs = window
	warmMemo(t, s, mo)
	_, _, g1 = mo.SlowPaths()
	p.TTBRTabPAs = nil
	rep := memoised(t, s, mo)
	if n := len(p.Gates); findingsOf(rep, "gate-semantics") < n {
		t.Errorf("empty TTBRTab window: %d gate-semantics findings for %d gates", findingsOf(rep, "gate-semantics"), n)
	}
	_, _, g2 := mo.SlowPaths()
	if g2-g1 != len(p.Gates) {
		t.Errorf("shrunk window recomputed %d of %d gate proofs", g2-g1, len(p.Gates))
	}

	p.TTBRTabPAs = window
	if rep := memoised(t, s, mo); !rep.Clean() {
		t.Fatalf("restored window reports findings: %v", rep.Findings)
	}
}

func findingsOf(rep verify.Report, checker string) int {
	n := 0
	for _, f := range rep.Findings {
		if f.Checker == checker {
			n++
		}
	}
	return n
}
