package verify

import (
	"strings"
	"testing"
)

// The registry is an ordered contract: CLI output columns, CI lanes, and the
// planted-attack battery all address checkers by these names in this order.
func TestCheckerRegistry(t *testing.T) {
	want := []string{"wx-audit", "sanitizer-sweep", "gate-integrity", "gate-semantics", "cfg-reachability", "cache-coherence"}
	cs := Checkers()
	if len(cs) != len(want) {
		t.Fatalf("registry has %d checkers, want %d", len(cs), len(want))
	}
	for i, c := range cs {
		if c.Name != want[i] {
			t.Errorf("checker %d is %q, want %q", i, c.Name, want[i])
		}
		if c.Desc == "" || c.Run == nil {
			t.Errorf("checker %q missing description or Run", c.Name)
		}
	}
}

func TestFindingString(t *testing.T) {
	f := Finding{
		Checker: "sanitizer-sweep", PID: 3, Domain: 2,
		VA: 0x400040, Word: 0xd508871f,
		Disasm: "tlbi vmalle1", Detail: "tlb maintenance in executable page",
	}
	s := f.String()
	for _, frag := range []string{"[sanitizer-sweep]", "pid=3", "domain=2", "va=0x400040", "tlb maintenance", "(tlbi vmalle1)"} {
		if !strings.Contains(s, frag) {
			t.Errorf("Finding.String() = %q, missing %q", s, frag)
		}
	}
	// Without disassembly the parenthetical is dropped entirely.
	f.Disasm = ""
	if s := f.String(); strings.Contains(s, "(") {
		t.Errorf("Finding.String() without disasm = %q, want no parenthetical", s)
	}
}

func TestReportClean(t *testing.T) {
	var r Report
	if !r.Clean() {
		t.Error("empty report must be clean")
	}
	r.Findings = append(r.Findings, Finding{Checker: "wx-audit"})
	if r.Clean() {
		t.Error("report with a finding must not be clean")
	}
}
