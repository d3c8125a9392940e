package replay

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"lightzone/internal/workload"
)

// chaosPlan builds a hand-written plan against the registered entities.
func chaosPlan(t *testing.T, scenario, injection string, at int) Plan {
	t.Helper()
	scn, ok := ScenarioByName(scenario)
	if !ok {
		t.Fatalf("unknown scenario %q", scenario)
	}
	if _, ok := InjectionByName(injection); !ok {
		t.Fatalf("unknown injection %q", injection)
	}
	return Plan{Scenario: scenario, Injection: injection,
		SliceTraps: scn.SliceChoices[0], InjectAt: at, Repeat: 1}
}

// TestChaosExpectationClasses drives one representative injection per
// expectation class end-to-end and requires each to land in its class.
func TestChaosExpectationClasses(t *testing.T) {
	cases := []struct {
		name      string
		plan      Plan
		wantClass Expectation
	}{
		{"host-invisible", chaosPlan(t, "ttbr-8", "mtlb-flush", 3), ExpectIdentical},
		{"timing-only", chaosPlan(t, "watchpoint-4", "tlb-evict-all", 9), ExpectConverge},
		{"tamper-flagged", chaosPlan(t, "ttbr-8", "gatetab-tamper", 5), ExpectFlagged},
		{"protection-attack", chaosPlan(t, "pan-8", "pan-set", 2), ExpectEnforced},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res := RunChaosCase(tc.plan)
			if !res.Pass {
				t.Fatalf("case failed: %+v", res)
			}
			if res.Expect != string(tc.wantClass) {
				t.Errorf("expectation class %q, want %q", res.Expect, tc.wantClass)
			}
			if res.Applied == 0 {
				t.Error("injection never applied")
			}
			t.Logf("outcome=%s delta=%q", res.Outcome, res.Delta)
		})
	}
}

// TestChaosRevertedFlipsAreIdentical exercises the context-flip injections
// whose revert must be provably exact.
func TestChaosRevertedFlipsAreIdentical(t *testing.T) {
	for _, inj := range []string{"pan-flip", "asid-flip", "block-cohort-evict", "fastpath-off"} {
		res := RunChaosCase(chaosPlan(t, "ttbr-8", inj, 4))
		if !res.Pass {
			t.Errorf("%s: %+v", inj, res)
		} else if res.Outcome != "identical" {
			t.Errorf("%s: outcome %q, want identical (%s)", inj, res.Outcome, res.Delta)
		}
	}
}

// TestChaosGateCodeTamperFlagged covers the second tamper path: the gate
// slot's code bytes, not its table entry.
func TestChaosGateCodeTamperFlagged(t *testing.T) {
	res := RunChaosCase(chaosPlan(t, "ttbr-8", "gate-code-tamper", 6))
	if !res.Pass || res.Outcome != "flagged" {
		t.Fatalf("%+v", res)
	}
}

// TestChaosSweepDeterministicAcrossWidths requires a sweep's results to be
// byte-identical at any fleet width — chaos rows are fleet cells like any
// other measurement.
func TestChaosSweepDeterministicAcrossWidths(t *testing.T) {
	const n, seed = 6, 11
	seq, err := ChaosSweep(workload.NewFleet(1), n, seed)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range seq {
		if !r.Pass {
			t.Errorf("case %d failed: %+v", i, r)
		}
	}
	par, err := ChaosSweep(workload.NewFleet(4), n, seed)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Errorf("sweep diverged across fleet widths\nseq: %+v\npar: %+v", seq, par)
	}
}

// TestRegenerateChaosSeedJournal rebuilds the committed chaos seed journal
// from the engine. Guarded by an environment variable: the journal is a
// fixture pinning the classification of every injection, so regenerating
// it is a deliberate act, never part of a normal test run.
func TestRegenerateChaosSeedJournal(t *testing.T) {
	if os.Getenv("LZ_REGEN_CHAOS_JOURNAL") == "" {
		t.Skip("set LZ_REGEN_CHAOS_JOURNAL=1 to regenerate testdata/chaos_prefork.journal.json")
	}
	var runner chaosRunner
	var rows []string
	for _, inj := range Injections() {
		plan := Plan{Scenario: "ttbr-8", Injection: inj.Name,
			SliceTraps: 8, InjectAt: 3, Repeat: 1}
		res := runner.RunCase(plan)
		if !res.Pass {
			t.Fatalf("case failed, refusing to pin it: %+v", res)
		}
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		rows = append(rows, string(b))
	}
	j := &Journal{Version: Version, Kind: KindBench,
		Config: RunConfig{Suites: []string{"chaos-prefork"}}, Rows: rows}
	j.Seal()
	if err := os.MkdirAll("testdata", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := j.Write("testdata/chaos_prefork.journal.json"); err != nil {
		t.Fatal(err)
	}
}

// TestChaosSeedJournalReplaysClean replays the committed seed journal: the
// classification recorded for every injection must reproduce exactly.
func TestChaosSeedJournalReplaysClean(t *testing.T) {
	j, err := ReadJournal("testdata/chaos_prefork.journal.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Validate(); err != nil {
		t.Fatalf("seed journal corrupt: %v", err)
	}
	var runner chaosRunner
	for i, row := range j.Rows {
		var want ChaosResult
		if err := json.Unmarshal([]byte(row), &want); err != nil {
			t.Fatalf("row %d: %v", i, err)
		}
		plan := Plan{Scenario: want.Scenario, Injection: want.Injection,
			SliceTraps: 8, InjectAt: 3, Repeat: 1}
		got := runner.RunCase(plan)
		got.Case = want.Case
		if !reflect.DeepEqual(got, want) {
			t.Errorf("row %d (%s) drifted from the seed journal:\ngot:  %+v\nwant: %+v",
				i, want.Injection, got, want)
		}
	}
}
