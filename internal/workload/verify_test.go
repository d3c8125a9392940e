package workload

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"lightzone/internal/arm64"
	"lightzone/internal/core"
	"lightzone/internal/kernel"
	"lightzone/internal/mem"
	"lightzone/internal/trace"
	"lightzone/internal/verify"
)

func verifyTestPlatform(t *testing.T) Platform {
	t.Helper()
	plats := AllPlatforms()
	if len(plats) == 0 {
		t.Fatal("no platforms")
	}
	return plats[0]
}

// The clean Table 5 configurations must verify with zero findings at every
// mutation chokepoint and after the run.
func TestVerifySweepClean(t *testing.T) {
	results, err := NewFleet(0).VerifySweep(verifyTestPlatform(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) == 0 {
		t.Fatal("no verification cells")
	}
	for _, r := range results {
		if r.Findings != 0 {
			t.Errorf("%s: %d findings on a clean machine", r.Name, r.Findings)
		}
		if r.InvariantRuns == 0 {
			t.Errorf("%s: invariant monitor never fired", r.Name)
		}
		if !r.Final.Clean() {
			t.Errorf("%s: final report not clean", r.Name)
		}
	}
}

// plantTextWord writes a TLBI over the word at off in the process's first
// sanitized executable page and returns its VA and a function that restores
// the original word.
func plantTextWord(env *Env, lp *core.LZProc, off uint64) (mem.VA, func() error, error) {
	va, real, err := plantedExecPage(lp)
	if err != nil {
		return 0, nil, err
	}
	pa := real + mem.PA(off)
	var orig, bad [4]byte
	binary.LittleEndian.PutUint32(bad[:], arm64.TLBIVMALLE1())
	if err := env.M.PM.Read(pa, orig[:]); err != nil {
		return 0, nil, err
	}
	if err := env.M.PM.Write(pa, bad[:]); err != nil {
		return 0, nil, err
	}
	return va + mem.VA(off), func() error { return env.M.PM.Write(pa, orig[:]) }, nil
}

// A finding seen only between two chokepoints still fails the cell: here a
// sensitive word is written into the process's text just before one
// mid-run chokepoint and restored right after it, so the last chokepoint
// report and the final report are both clean.
func TestVerifyCellFailsOnTransientFinding(t *testing.T) {
	plat := verifyTestPlatform(t)
	c := verifyConfigs(plat)[0]
	env, err := NewEnv(plat)
	if err != nil {
		t.Fatal(err)
	}
	mon := env.EnableInvariants()
	observe := env.LZ.Observer
	const tamperAt = 4
	calls := 0
	var tamperVA mem.VA
	env.LZ.Observer = func(event string, lp *core.LZProc) {
		calls++
		if calls != tamperAt {
			observe(event, lp)
			return
		}
		va, restore, err := plantTextWord(env, lp, 0)
		if err != nil {
			t.Fatal(err)
		}
		observe(event, lp)
		if err := restore(); err != nil {
			t.Fatal(err)
		}
		tamperVA = va
	}
	res, err := verifyCell(c.name, c.cfg, mon)
	if calls <= tamperAt {
		t.Fatalf("only %d chokepoints; the tamper must sit before the last one", calls)
	}
	if !mon.Last.Clean() || !res.Final.Clean() {
		t.Fatalf("tamper was not transient: last %d, final %d findings", len(mon.Last.Findings), len(res.Final.Findings))
	}
	if !errors.Is(err, ErrFindings) {
		t.Fatalf("transient finding not reported as a verdict: err=%v, findings=%d", err, res.Findings)
	}
	if want := fmt.Sprintf("va=%#x", uint64(tamperVA)); !strings.Contains(err.Error(), want) {
		t.Errorf("verdict %q does not name the tampered %s", err, want)
	}
}

// The observer's long-lived memo must be invisible: at every chokepoint of
// the ttbr-8 and pan-8 cells on a Host and a Guest platform, and of the
// overlay and granule switch benchmarks, its report equals one from a fresh
// memo. Every other chokepoint a sensitive word sits in the text while the
// two reports are taken (a different word each time), so the memo has to
// follow the page from clean to dirty and back.
func TestInvariantMemoMatchesFresh(t *testing.T) {
	type cell struct {
		name    string
		prepare func() (*Env, *kernel.Process, error)
		budget  int64
	}
	var cells []cell
	for _, plat := range []Platform{AllPlatforms()[0], AllPlatforms()[3]} {
		for _, c := range verifyConfigs(plat) {
			if c.name == "ttbr-32" {
				continue
			}
			cfg := c.cfg
			cells = append(cells, cell{plat.String() + "/" + c.name,
				func() (*Env, *kernel.Process, error) { return prepareDomainSwitch(cfg, nil) },
				domainSwitchBudget(cfg)})
		}
	}
	for _, v := range []Variant{VariantOverlay, VariantGranule} {
		cfg := DomainSwitchConfig{Platform: AllPlatforms()[0], Variant: v, Domains: 8, Iters: 200, Seed: Table5Seed}
		cells = append(cells, cell{string(v) + "-8",
			func() (*Env, *kernel.Process, error) { return prepareDomainSwitch(cfg, nil) },
			domainSwitchBudget(cfg)})
	}
	for _, c := range cells {
		t.Run(c.name, func(t *testing.T) {
			env, p, err := c.prepare()
			if err != nil {
				t.Fatal(err)
			}
			memo := verify.NewMemo()
			runs, dirty := 0, 0
			var diff error
			env.LZ.Observer = func(event string, lp *core.LZProc) {
				runs++
				if diff != nil {
					return
				}
				restore := func() error { return nil }
				if runs%2 == 0 && len(lp.ExecCleanPages()) > 0 {
					_, undo, err := plantTextWord(env, lp, uint64(runs%64)*arm64.InsnBytes)
					if err != nil {
						diff = err
						return
					}
					restore = undo
					dirty++
				}
				got, err1 := verify.RunMachineMemo(env.M, env.LZ, memo)
				want, err2 := verify.RunMachine(env.M, env.LZ)
				switch {
				case err1 != nil || err2 != nil:
					diff = fmt.Errorf("chokepoint %d (%s): capture failed: %v / %v", runs, event, err1, err2)
				case !reflect.DeepEqual(got, want):
					diff = fmt.Errorf("chokepoint %d (%s): memoised report differs from a fresh one:\n got %+v\nwant %+v",
						runs, event, got, want)
				}
				if err := restore(); err != nil && diff == nil {
					diff = err
				}
			}
			if err := env.Run(p, c.budget); err != nil {
				t.Fatal(err)
			}
			if p.Killed {
				t.Fatalf("benchmark killed: %s", p.KillMsg)
			}
			if diff != nil {
				t.Fatal(diff)
			}
			if runs < 3 || dirty == 0 {
				t.Fatalf("only %d chokepoints (%d tampered)", runs, dirty)
			}
		})
	}
}

// Every planted attack must be caught by its designated checker at the
// planted VA; PlantedSweep errors otherwise, so success is mostly asserted
// inside the sweep. The test re-checks the result rows and that all five
// checkers are exercised by the battery.
func TestPlantedSweep(t *testing.T) {
	results, err := NewFleet(0).PlantedSweep(verifyTestPlatform(t), "lightzone")
	if err != nil {
		t.Fatal(err)
	}
	checkers := make(map[string]bool)
	for _, r := range results {
		if !r.Caught {
			t.Errorf("%s: not caught", r.Name)
		}
		if r.VA == 0 {
			t.Errorf("%s: no planted VA recorded", r.Name)
		}
		checkers[r.Checker] = true
	}
	for _, c := range verify.Checkers() {
		if !checkers[c.Name] {
			t.Errorf("battery exercises no attack for checker %s", c.Name)
		}
	}
}

// EnableInvariants must record one KindInvariant trace event per verifier
// run and must not change measured benchmark results: the monitor is
// observation-only.
func TestInvariantMonitorTraceAndNeutrality(t *testing.T) {
	plat := verifyTestPlatform(t)
	cfg := DomainSwitchConfig{Platform: plat, Variant: VariantLZTTBR, Domains: 4, Iters: 100, Seed: Table5Seed}

	base, err := RunDomainSwitch(cfg)
	if err != nil {
		t.Fatal(err)
	}

	env, err := NewEnv(plat)
	if err != nil {
		t.Fatal(err)
	}
	rec := env.EnableTrace(4096)
	mon := env.EnableInvariants()
	res, _, err := runDomainSwitch(cfg, env)
	if err != nil {
		t.Fatal(err)
	}
	if mon.Err != nil {
		t.Fatal(mon.Err)
	}
	if mon.Runs == 0 {
		t.Fatal("invariant monitor never fired")
	}
	if mon.Findings != 0 {
		t.Fatalf("%d findings on a clean machine (last report: %+v)", mon.Findings, mon.Last.Findings)
	}
	if res.TotalCycles != base.TotalCycles {
		t.Errorf("invariant monitoring changed measured cycles: %d vs %d", res.TotalCycles, base.TotalCycles)
	}
	events := 0
	for _, ev := range rec.Events() {
		if ev.Kind == trace.KindInvariant {
			events++
		}
	}
	if events != mon.Runs {
		t.Errorf("%d KindInvariant trace events, monitor ran %d times", events, mon.Runs)
	}
}

// The verification report must round-trip through JSON with its identifying
// fields intact — the schema lzverify -json and lzinspect -invariants emit.
func TestVerifyReportJSON(t *testing.T) {
	env, _, err := plantedCleanBackend(verifyTestPlatform(t), "lightzone")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := verify.RunMachine(env.M, env.LZ)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("clean machine reported findings: %+v", rep.Findings)
	}
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var decoded verify.Report
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded.Machine != rep.Machine {
		t.Errorf("machine lost in round trip: %q vs %q", decoded.Machine, rep.Machine)
	}
	if len(decoded.Checkers) != len(verify.Checkers()) {
		t.Errorf("report lists %d checkers, registry has %d", len(decoded.Checkers), len(verify.Checkers()))
	}
	if decoded.Procs != len(env.LZ.Procs()) {
		t.Errorf("report covers %d procs, machine has %d", decoded.Procs, len(env.LZ.Procs()))
	}
}
