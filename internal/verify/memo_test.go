package verify_test

import (
	"encoding/binary"
	"fmt"
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
func memoMachine(t testing.TB) *workload.Env {
	t.Helper()
	env := switchMachine(t, workload.VariantLZTTBR, 8)
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

// memoRun captures the machine through mo's capture cache and runs the
// registry with mo, and checks both against a fresh capture and a fresh
// memo: every domain's mappings and the report must be equal.
func memoRun(t *testing.T, env *workload.Env, mo *verify.Memo) verify.Report {
	t.Helper()
	s, err := verify.CaptureMemo(env.M, env.LZ, mo)
	if err != nil {
		t.Fatal(err)
	}
	fresh := capture(t, env)
	if !reflect.DeepEqual(s.Procs, fresh.Procs) {
		t.Fatal("memoised capture differs from a fresh one")
	}
	got := verify.RunMemo(s, mo)
	if want := verify.Run(fresh); !reflect.DeepEqual(got, want) {
		t.Fatalf("memoised report differs from a fresh one:\n got %+v\nwant %+v", got, want)
	}
	return got
}

// warmCapture runs the memo three times over the unchanged machine (a root
// is recorded from its second capture on) and checks the last run walked
// no table.
func warmCapture(t *testing.T, env *workload.Env, mo *verify.Memo) {
	t.Helper()
	for range 2 {
		if rep := memoRun(t, env, mo); !rep.Clean() {
			t.Fatalf("clean machine reported findings: %v", rep.Findings)
		}
	}
	w := mo.Walks()
	if rep := memoRun(t, env, mo); !rep.Clean() {
		t.Fatalf("clean machine reported findings: %v", rep.Findings)
	}
	if mo.Walks() != w {
		t.Fatalf("a run over an unchanged machine walked %d tables", mo.Walks()-w)
	}
}

// leafSlotPA returns the physical address of the level-3 descriptor that
// maps va in s1.
func leafSlotPA(t *testing.T, pm *mem.PhysMem, s1 *mem.Stage1, va mem.VA) mem.PA {
	t.Helper()
	table := s1.Root()
	for level := 0; ; level++ {
		slot := table + mem.PA(mem.TableIndex(uint64(va), level)*8)
		if level == 3 {
			return slot
		}
		desc, err := pm.ReadU64(slot)
		if err != nil {
			t.Fatal(err)
		}
		if mem.ClassifyDesc(desc, level) != mem.DescKindTable {
			t.Fatalf("%v: no level-3 table under level %d", va, level)
		}
		table = mem.PA(desc & mem.OAMask)
	}
}

// switchMachine runs a switch benchmark of the variant over the given
// number of domains to completion.
func switchMachine(t testing.TB, v workload.Variant, domains int) *workload.Env {
	t.Helper()
	cfg := workload.DomainSwitchConfig{
		Platform: workload.AllPlatforms()[0], Variant: v,
		Domains: domains, Iters: 64, Seed: workload.Table5Seed,
	}
	env, p, err := workload.PrepareDomainSwitch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := env.Run(p, workload.DomainSwitchBudget(cfg)); err != nil {
		t.Fatal(err)
	}
	return env
}

// A raw PhysMem write into a leaf table of a domain no chokepoint touched
// since its capture was recorded must be seen at the next run, on every
// backend: the capture cache compares table bytes, it does not count the
// module's own writes.
func TestMemoCaptureSeesRawTableWrite(t *testing.T) {
	for _, v := range []workload.Variant{workload.VariantLZTTBR, workload.VariantOverlay, workload.VariantGranule} {
		t.Run(string(v), func(t *testing.T) {
			env := switchMachine(t, v, 8)
			lp := env.LZ.Procs()[0]
			mo := verify.NewMemo()
			warmCapture(t, env, mo)

			ids := lp.PageTableIDs()
			d, _ := lp.PageTable(ids[len(ids)-1])
			va := lp.ExecCleanPages()[0]
			slot := leafSlotPA(t, env.M.PM, d.S1, va)
			orig, err := env.M.PM.ReadU64(slot)
			if err != nil {
				t.Fatal(err)
			}
			if orig&mem.DescValid == 0 || orig&mem.AttrPXN != 0 || orig&mem.AttrAPRO == 0 {
				t.Fatalf("domain %d maps text page %v as %#x, not read-only executable", d.ID, va, orig)
			}
			// Make the text page writable in this one domain.
			if err := env.M.PM.WriteU64(slot, orig&^mem.AttrAPRO); err != nil {
				t.Fatal(err)
			}
			rep := memoRun(t, env, mo)
			found := false
			for _, f := range rep.Findings {
				found = found || f.Checker == "wx-audit" && f.Domain == d.ID && f.VA == uint64(va)
			}
			if !found {
				t.Errorf("wx-audit did not flag writable text %v in domain %d: %v", va, d.ID, rep.Findings)
			}

			if err := env.M.PM.WriteU64(slot, orig); err != nil {
				t.Fatal(err)
			}
			if rep := memoRun(t, env, mo); !rep.Clean() {
				t.Fatalf("reverted machine still reports findings: %v", rep.Findings)
			}
		})
	}
}

// A freed domain's root frame goes back to the allocator and becomes the
// root of the next domain, with different leaves: its recorded capture must
// not be reused for the new table, and once no run captures the root its
// record is gone.
func TestMemoCaptureRootReuse(t *testing.T) {
	env := memoMachine(t)
	lp := env.LZ.Procs()[0]
	mo := verify.NewMemo()
	warmCapture(t, env, mo)

	ids := lp.PageTableIDs()
	old, _ := lp.PageTable(ids[len(ids)-1])
	root := old.S1.Root()
	if !mo.HoldsCapture(root) {
		t.Fatal("memo holds no capture of a live domain table")
	}
	if err := lp.Free(old.ID); err != nil {
		t.Fatal(err)
	}
	id, err := lp.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	d, _ := lp.PageTable(id)
	if d.S1.Root() != root {
		t.Fatalf("new domain's root %v does not reuse the freed root %v", d.S1.Root(), root)
	}
	memoRun(t, env, mo)

	if err := lp.Free(id); err != nil {
		t.Fatal(err)
	}
	memoRun(t, env, mo)
	if mo.HoldsCapture(root) {
		t.Error("memo still holds the capture of a table freed before the last run")
	}
}

// A failed capture leaves the memo as the last completed run left it, and
// the next run after the repair is exact.
func TestMemoFailedCaptureLeavesNoHalfRun(t *testing.T) {
	env := memoMachine(t)
	lp := env.LZ.Procs()[0]
	mo := verify.NewMemo()
	warmCapture(t, env, mo)
	held := mo.Held()

	ids := lp.PageTableIDs()
	d, _ := lp.PageTable(ids[len(ids)/2])
	root := d.S1.Root()
	var slot mem.PA
	for idx := uint64(0); idx < 512; idx++ {
		desc, err := env.M.PM.ReadU64(root + mem.PA(idx*8))
		if err != nil {
			t.Fatal(err)
		}
		if desc&mem.DescValid != 0 {
			slot = root + mem.PA(idx*8)
			break
		}
	}
	orig, err := env.M.PM.ReadU64(slot)
	if err != nil || orig == 0 {
		t.Fatalf("domain %d's root holds no table descriptor: %v", d.ID, err)
	}
	beyond := (env.M.PM.Size() + mem.PageSize) &^ mem.PageMask
	if err := env.M.PM.WriteU64(slot, orig&^mem.OAMask|beyond&mem.OAMask); err != nil {
		t.Fatal(err)
	}
	if _, err := verify.RunMachineMemo(env.M, env.LZ, mo); err == nil {
		t.Fatal("capture through a descriptor beyond physical memory succeeded")
	}
	if mo.Held() != held {
		t.Errorf("memo holds %d entries after a failed capture, %d before it", mo.Held(), held)
	}

	if err := env.M.PM.WriteU64(slot, orig); err != nil {
		t.Fatal(err)
	}
	if rep := memoRun(t, env, mo); !rep.Clean() {
		t.Fatalf("repaired machine reports findings: %v", rep.Findings)
	}
	if mo.Held() != held {
		t.Errorf("memo holds %d entries after the repair, %d before the failure", mo.Held(), held)
	}
}

// CFG reachability is memoised per entry point: a new domain with the same
// text whose entries are all known, in a combination no domain had, costs
// no CFG build.
func TestMemoCFGPerEntry(t *testing.T) {
	env := memoMachine(t)
	lp := env.LZ.Procs()[0]
	mo := verify.NewMemo()
	warmCapture(t, env, mo)
	c0, _, _ := mo.SlowPaths()

	gates := lp.Gates()
	id, err := lp.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range gates[:2] {
		if err := lp.MapGatePgt(id, g.ID); err != nil {
			t.Fatal(err)
		}
	}
	if rep := memoRun(t, env, mo); !rep.Clean() {
		t.Fatalf("clean machine reported findings: %v", rep.Findings)
	}
	if c1, _, _ := mo.SlowPaths(); c1 != c0 {
		t.Errorf("a domain with known text and entries cost %d CFG builds", c1-c0)
	}
}

// A domain's flags are the union over its entries in address order: here
// two gate entries of one domain reach flagged words that interleave, and
// the memoised report must list them exactly as a fresh one does.
func TestMemoCFGInterleavedEntries(t *testing.T) {
	env := memoMachine(t)
	s := capture(t, env)
	mo := verify.NewMemo()
	warmMemo(t, s, mo)
	p := &s.Procs[0]

	// The first gate's domain gets a second gate, entered 0x1f0 bytes
	// further into the text page.
	e1 := p.Gates[0].Entry
	page := e1 &^ mem.PageMask
	e2 := e1 + 0x1f0
	if e1 < page+0x10 || e1+0x400 >= page+mem.PageSize {
		t.Fatalf("gate entry %#x too close to its page's edge for the layout", e1)
	}
	p.Gates[1].PGTID, p.Gates[1].Entry = p.Gates[0].PGTID, e2

	// TextBase returns at once; e1 flags e1 and e1+0x3f0, e2 flags e2.
	sens := arm64.TLBIVMALLE1()
	code := map[uint64]uint32{
		page:           arm64.RET(30),
		e1:             sens,
		e1 + 4:         arm64.B(0x3f0 - 4),
		e1 + 0x3f0:     sens,
		e1 + 0x3f0 + 4: arm64.RET(30),
		e2:             sens,
		e2 + 4:         arm64.RET(30),
	}
	lp := env.LZ.Procs()[0]
	d0, _ := lp.PageTable(0)
	walk, err := d0.S1.Walk(mem.VA(page))
	if err != nil || !walk.Found {
		t.Fatalf("text page %#x not mapped in the base table", page)
	}
	real, ok := lp.Fake().RealOf(mem.IPA(walk.Desc & mem.OAMask))
	if !ok {
		t.Fatalf("no real frame behind text page %#x", page)
	}
	for va, w := range code {
		if err := env.M.PM.WriteUint(real+mem.PA(va-page), 4, uint64(w)); err != nil {
			t.Fatal(err)
		}
	}

	rep := memoised(t, s, mo)
	var got []uint64
	for _, f := range rep.Findings {
		if f.Checker == "cfg-reachability" {
			got = append(got, f.VA)
		}
	}
	if want := []uint64{e1, e2, e1 + 0x3f0}; !reflect.DeepEqual(got, want) {
		t.Errorf("cfg-reachability flagged %#x, want %#x", got, want)
	}
}

// In the chokepoint-verified ttbr-32 cell every domain runs the same text
// and all 32 gates share one entry, so the memo builds the CFG only for
// the few distinct (text, entry) pairs the cell goes through, not once per
// new domain.
func TestMemoCFGBuildsTTBR32(t *testing.T) {
	cfg := workload.DomainSwitchConfig{
		Platform: workload.AllPlatforms()[0], Variant: workload.VariantLZTTBR,
		Domains: 32, Iters: 100, Seed: workload.Table5Seed,
	}
	env, p, err := workload.PrepareDomainSwitch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mo := verify.NewMemo()
	runs := 0
	var failed error
	env.LZ.Observer = func(event string, _ *core.LZProc) {
		runs++
		if rep, err := verify.RunMachineMemo(env.M, env.LZ, mo); failed == nil && (err != nil || !rep.Clean()) {
			failed = fmt.Errorf("chokepoint %d (%s): %v %v", runs, event, err, rep.Findings)
		}
	}
	if err := env.Run(p, workload.DomainSwitchBudget(cfg)); err != nil {
		t.Fatal(err)
	}
	if failed != nil {
		t.Fatal(failed)
	}
	if runs < 64 {
		t.Fatalf("only %d chokepoints", runs)
	}
	builds, _, _ := mo.SlowPaths()
	t.Logf("%d CFG builds over %d chokepoints", builds, runs)
	if builds > 4 {
		t.Errorf("%d CFG builds over %d chokepoints, want at most 4", builds, runs)
	}
}

// BenchmarkMemoRerun re-verifies a 32-domain machine after one lz_prot
// (one domain's page flips between read-only and read-write), with a fresh
// memo per run and with one memo kept across runs, as the chokepoint
// observer keeps it.
func BenchmarkMemoRerun(b *testing.B) {
	env := switchMachine(b, workload.VariantLZTTBR, 32)
	lp := env.LZ.Procs()[0]
	s, err := verify.Capture(env.M, env.LZ)
	if err != nil {
		b.Fatal(err)
	}
	base := make(map[mem.VA]bool)
	for _, m := range s.Procs[0].Domains[0].Maps {
		base[m.VA] = true
	}
	d := s.Procs[0].Domains[1]
	var page mem.VA
	for _, m := range d.Maps {
		if !base[m.VA] {
			page = m.VA
			break
		}
	}
	if page == 0 {
		b.Fatalf("domain %d maps no page of its own", d.ID)
	}
	perms := [2]int{core.PermRead, core.PermRead | core.PermWrite}
	for _, fresh := range []bool{true, false} {
		name := "long-lived"
		if fresh {
			name = "fresh"
		}
		b.Run(name, func(b *testing.B) {
			mo := verify.NewMemo()
			for i := 0; i < b.N; i++ {
				if err := lp.Prot(page, mem.PageSize, d.ID, perms[i%2]); err != nil {
					b.Fatal(err)
				}
				if fresh {
					mo = verify.NewMemo()
				}
				rep, err := verify.RunMachineMemo(env.M, env.LZ, mo)
				if err != nil {
					b.Fatal(err)
				}
				if !rep.Clean() {
					b.Fatalf("clean machine reported findings: %v", rep.Findings)
				}
			}
		})
	}
}
