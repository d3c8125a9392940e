// Command lzverify drives LightZone's whole-machine static invariant
// verifier (internal/verify). In its default mode it constructs the clean
// Table 5 benchmark machines, re-runs the full checker registry at every
// security-state mutation chokepoint and once more after the run, and exits
// non-zero if any invariant ever fails to hold. With -planted it instead
// builds the planted-attack battery — machines carrying a W-xor-X flip, a
// tampered GateTab, a smuggled sensitive word, a TTBR0 write hidden behind
// a never-taken branch, and friends — and exits non-zero unless every
// attack is caught by its designated checker at the planted VA, statically,
// with the dynamic enforcement paths never having fired.
//
// Usage:
//
//	lzverify                    # verify the clean machines (exit 0 = clean)
//	lzverify -planted           # verify the planted attacks are all caught
//	lzverify -planted -backend all # re-plant the battery under every backend
//	lzverify -json              # one JSON object per verification cell
//	lzverify -platform Carmel   # restrict to platforms matching a substring
//
// Exit status separates verdicts from breakage: 0 means every cell was
// verified clean (or every attack caught), 1 means the analysis ran and
// delivered an adverse verdict — a finding on a clean machine, an uncaught
// planted attack, a falsely flagged control word — and 2 means the
// analysis itself failed (snapshot capture error, machine construction
// failure, bad flags), so no verdict exists. CI lanes key off the
// distinction: 1 is a security regression, 2 is tooling breakage.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"lightzone/internal/workload"
)

func main() {
	var (
		planted  = flag.Bool("planted", false, "run the planted-attack battery instead of the clean sweep")
		jsonMode = flag.Bool("json", false, "emit one JSON object per verification cell")
		platform = flag.String("platform", "", "restrict to platforms whose name contains this substring")
		backend  = flag.String("backend", "lightzone", "with -planted: isolation backend to re-plant the battery under (or \"all\")")
		parallel = flag.Int("parallel", runtime.NumCPU(), "worker goroutines for the verification cells")
	)
	flag.Parse()
	if err := run(*planted, *jsonMode, *platform, *backend, *parallel); err != nil {
		fmt.Fprintln(os.Stderr, "lzverify:", err)
		os.Exit(exitCode(err))
	}
}

// exitCode maps an error to the documented exit status: 1 for verification
// verdicts (the analysis ran; the machine is bad), 2 for analysis failures
// (no verdict exists).
func exitCode(err error) int {
	if err == nil {
		return 0
	}
	if errors.Is(err, workload.ErrFindings) {
		return 1
	}
	return 2
}

func platforms(filter string) ([]workload.Platform, error) {
	var out []workload.Platform
	for _, plat := range workload.AllPlatforms() {
		if strings.Contains(strings.ToLower(plat.String()), strings.ToLower(filter)) {
			out = append(out, plat)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no platform matches %q", filter)
	}
	return out, nil
}

func run(planted, jsonMode bool, platform, backend string, parallel int) error {
	plats, err := platforms(platform)
	if err != nil {
		return err
	}
	backends, err := workload.ResolveBackends(backend)
	if err != nil {
		return err
	}
	if !planted && backend != "lightzone" {
		return fmt.Errorf("-backend selects the battery substrate and needs -planted (the clean sweep is the lightzone substrate)")
	}
	fleet := workload.NewFleet(parallel)
	for _, plat := range plats {
		if planted {
			for _, b := range backends {
				if err := runPlanted(fleet, plat, b, jsonMode); err != nil {
					return err
				}
			}
			continue
		}
		if err := runClean(fleet, plat, jsonMode); err != nil {
			return err
		}
	}
	return nil
}

// runClean verifies the clean benchmark machines; VerifySweep returns an
// error — and lzverify exits non-zero — on any finding at any chokepoint.
func runClean(fleet *workload.Fleet, plat workload.Platform, jsonMode bool) error {
	results, err := fleet.VerifySweep(plat)
	if err != nil {
		return err
	}
	if !jsonMode {
		fmt.Printf("%s:\n", plat)
	}
	for _, r := range results {
		if jsonMode {
			if err := emitJSON(map[string]any{
				"kind": "verify", "platform": plat.String(), "config": r.Name,
				"machine": r.Machine, "invariant_runs": r.InvariantRuns,
				"findings": r.Findings, "checkers": r.Final.Checkers,
			}); err != nil {
				return err
			}
			continue
		}
		fmt.Printf("  %-10s %3d invariant runs, %d findings  CLEAN\n", r.Name, r.InvariantRuns, r.Findings)
	}
	return nil
}

// runPlanted verifies the attack battery under one backend's substrate;
// PlantedSweep returns an error — and lzverify exits non-zero — when
// any planted violation goes undetected or an unreachable control word is
// falsely flagged. Attacks that have no meaning on a substrate (gate
// tampering where no gates exist) are replaced by that backend's own
// battery: overlay-key retagging, granule-state forgery, and so on.
func runPlanted(fleet *workload.Fleet, plat workload.Platform, backend string, jsonMode bool) error {
	results, err := fleet.PlantedSweep(plat, backend)
	if err != nil {
		return fmt.Errorf("backend %s: %w", backend, err)
	}
	if !jsonMode {
		fmt.Printf("%s [%s]:\n", plat, backend)
	}
	for _, r := range results {
		if jsonMode {
			if err := emitJSON(map[string]any{
				"kind": "planted", "platform": plat.String(), "backend": backend,
				"attack": r.Name, "checker": r.Checker, "va": fmt.Sprintf("%#x", r.VA),
				"caught": r.Caught, "detail": r.Detail,
			}); err != nil {
				return err
			}
			continue
		}
		fmt.Printf("  %-26s CAUGHT by %s at %#x\n", r.Name, r.Checker, r.VA)
		fmt.Printf("    %s\n", r.Detail)
	}
	return nil
}

func emitJSON(obj map[string]any) error {
	b, err := json.Marshal(obj)
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(b))
	return err
}
