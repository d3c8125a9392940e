// Package verify implements LightZone's whole-machine static invariant
// verifier. It captures an observation-only snapshot of a constructed
// machine — guest physical memory, every domain's stage-1 table, the TTBR1
// half, stage-2, GateTab/TTBRTab, the TLB and the decoded-block cache — and
// runs a registry of named invariant checkers over it. Each checker proves
// one leg of the paper's security argument statically: W-xor-X with no
// writable alias of gate state (§6.3/§6.2), no sensitive instruction
// admitted to an executable page (Table 3), call-gate slots structurally
// sound and semantically proven — symbolic execution from every entry
// offset shows each gate path restores PAN, installs only the registered
// table and returns to the recorded entry (§6.2) — no application-reachable
// path to a forbidden instruction (exact CFG over fixed-width A64), and
// translation caches coherent with the live page tables.
//
// Everything here is read-only with respect to the measured machine: no
// cycle charges, no TLB probes, no demand mapping, no stats movement —
// running the verifier between benchmark steps leaves emitted results
// byte-identical.
package verify

import (
	"fmt"

	"lightzone/internal/core"
	"lightzone/internal/hyp"
)

// Finding is one invariant violation, anchored to a guest address.
type Finding struct {
	Checker string `json:"checker"`
	PID     int    `json:"pid"`
	Proc    string `json:"proc,omitempty"`
	// Domain is the page-table id the finding was observed in; -1 marks
	// TTBR1-half or process-wide findings.
	Domain int    `json:"domain"`
	VA     uint64 `json:"va"`
	PA     uint64 `json:"pa,omitempty"`
	Word   uint32 `json:"word,omitempty"`
	Disasm string `json:"disasm,omitempty"`
	Detail string `json:"detail"`
}

func (f Finding) String() string {
	where := fmt.Sprintf("pid=%d domain=%d va=%#x", f.PID, f.Domain, f.VA)
	if f.Disasm != "" {
		return fmt.Sprintf("[%s] %s: %s (%s)", f.Checker, where, f.Detail, f.Disasm)
	}
	return fmt.Sprintf("[%s] %s: %s", f.Checker, where, f.Detail)
}

// Checker is one named invariant check over a snapshot.
type Checker struct {
	Name string
	Desc string
	Run  func(*Snapshot) []Finding
}

// Checkers returns the invariant registry for the default (lightzone)
// backend in its fixed execution order.
func Checkers() []Checker { return CheckersFor("lightzone") }

// CheckersFor returns the invariant registry for an isolation backend. The
// substrate-invariant checkers are shared; the third slot carries the
// substrate's own structural audit — call gates where gates exist
// (lightzone), otherwise the overlay-key or granule-state audit. The
// gate-semantics proof runs under every backend: it quantifies over the
// registered gates, so a substrate with none is trivially proven.
func CheckersFor(backend string) []Checker {
	substrate := Checker{
		Name: "gate-integrity",
		Desc: "every installed call-gate slot matches the generated gate; GateTab/TTBRTab entries consistent",
		Run:  checkGates,
	}
	switch backend {
	case "overlay":
		substrate = Checker{
			Name: "overlay-keys",
			Desc: "every overlay-keyed descriptor carries a granted key agreeing with module bookkeeping; keyed pages are protected-marked, kernel-only data",
			Run:  checkOverlayKeys,
		}
	case "granule":
		substrate = Checker{
			Name: "granule-state",
			Desc: "every zone-protected mapping backs onto a granule delegated and assigned to that zone; no foreign or unprotected alias of a delegated granule",
			Run:  checkGranules,
		}
	}
	return []Checker{
		{
			Name: "wx-audit",
			Desc: "no mapping is writable+executable; no writable or user alias of stub/gate/GateTab/TTBRTab frames",
			Run:  checkWX,
		},
		{
			Name: "sanitizer-sweep",
			Desc: "every executable application page re-passes the Table 3 sanitizer under the process policy",
			Run:  checkSanitizer,
		},
		substrate,
		{
			Name: "gate-semantics",
			Desc: "symbolic execution proves every gate path restores PAN, installs only the registered table and returns to the recorded entry",
			Run:  checkGateSemantics,
		},
		{
			Name: "cfg-reachability",
			Desc: "no application-reachable path executes a forbidden MSR/ERET/SMC or non-API HVC",
			Run:  checkCFG,
		},
		{
			Name: "cache-coherence",
			Desc: "TLB entries and valid decoded blocks agree with the current page tables and memory",
			Run:  checkCaches,
		},
	}
}

// CheckerResult summarizes one checker's run.
type CheckerResult struct {
	Name     string `json:"name"`
	Findings int    `json:"findings"`
}

// Report is the result of running the full registry over one snapshot.
type Report struct {
	Machine  string          `json:"machine,omitempty"`
	Procs    int             `json:"procs"`
	Checkers []CheckerResult `json:"checkers"`
	Findings []Finding       `json:"findings"`
}

// Clean reports whether no checker produced findings.
func (r Report) Clean() bool { return len(r.Findings) == 0 }

// Run executes every registered checker against the snapshot.
func Run(s *Snapshot) Report { return RunMemo(s, nil) }

// RunMachine captures a snapshot of (m, lz) and runs the registry.
func RunMachine(m *hyp.Machine, lz *core.LightZone) (Report, error) {
	return RunMachineMemo(m, lz, nil)
}

// RunMachineMemo is RunMachine with a checker memo for repeated
// verifications of the same machine (the chokepoint observer).
func RunMachineMemo(m *hyp.Machine, lz *core.LightZone, mo *Memo) (Report, error) {
	s, err := Capture(m, lz)
	if err != nil {
		return Report{}, err
	}
	return RunMemo(s, mo), nil
}
