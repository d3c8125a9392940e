package workload

import (
	"fmt"

	"lightzone/internal/core"
	"lightzone/internal/trace"
	"lightzone/internal/verify"
)

// InvariantMonitor accumulates static-verifier runs triggered at the
// LightZone module's mutation chokepoints (-invariants mode). Each run
// captures a fresh snapshot of the whole machine and executes the full
// checker registry; a clean machine must stay clean at every chokepoint,
// not just at the end of a run.
type InvariantMonitor struct {
	env *Env

	// Runs counts verifier executions; Findings sums their findings.
	Runs     int
	Findings int
	// First is the first report with findings. A finding can be gone again
	// by the next chokepoint (a tamper reverted in between), so Last alone
	// cannot tell a clean run from a dirty one.
	First verify.Report
	// Last is the most recent report.
	Last verify.Report
	// Err records the first capture failure (a simulator bug, not a
	// security finding).
	Err error

	// memo is this machine's verifier memo: it carries the per-domain CFG,
	// per-page sanitizer and per-gate proof results from one chokepoint to
	// the next, so each run re-proves only what the mutation changed.
	// Memoised reports are byte-identical to fresh ones.
	memo *verify.Memo
}

// EnableInvariants attaches the static verifier to every security-state
// mutation chokepoint of the module (lz_enter, lz_prot, lz_alloc, lz_free,
// lz_map_gate_pgt, sanitizer admissions, W-xor-X flips). Verification is
// observation-only — emulated cycles, TLB statistics and benchmark results
// are byte-identical with the monitor attached — and each run is recorded
// on the module's trace as a KindInvariant event.
func (e *Env) EnableInvariants() *InvariantMonitor {
	mon := &InvariantMonitor{env: e, memo: verify.NewMemo()}
	e.LZ.Observer = func(event string, lp *core.LZProc) {
		rep, err := verify.RunMachineMemo(e.M, e.LZ, mon.memo)
		if err != nil {
			if mon.Err == nil {
				mon.Err = fmt.Errorf("invariant capture at %s: %w", event, err)
			}
			return
		}
		mon.Runs++
		mon.Findings += len(rep.Findings)
		if mon.First.Clean() {
			mon.First = rep
		}
		mon.Last = rep
		e.LZ.Trace.Record(e.M.CPU.Cycles, trace.KindInvariant, lp.PID(),
			"%s: %d checkers, %d findings", event, len(rep.Checkers), len(rep.Findings))
	}
	return mon
}

// VerifyResult is one clean-machine verification cell: a benchmark
// configuration run to completion with the invariant monitor attached,
// plus a final whole-machine report.
type VerifyResult struct {
	Name          string        `json:"name"`
	Machine       string        `json:"machine"`
	InvariantRuns int           `json:"invariant_runs"`
	Findings      int           `json:"findings"`
	Final         verify.Report `json:"final"`
}

// verifyConfigs are the clean machines the sweep proves invariant-free:
// scalable TTBR isolation at two domain counts and PAN-based isolation,
// matching the Table 5 configurations.
func verifyConfigs(plat Platform) []struct {
	name string
	cfg  DomainSwitchConfig
} {
	return []struct {
		name string
		cfg  DomainSwitchConfig
	}{
		{"ttbr-8", DomainSwitchConfig{Platform: plat, Variant: VariantLZTTBR, Domains: 8, Iters: 200, Seed: Table5Seed}},
		{"ttbr-32", DomainSwitchConfig{Platform: plat, Variant: VariantLZTTBR, Domains: 32, Iters: 100, Seed: Table5Seed}},
		{"pan-8", DomainSwitchConfig{Platform: plat, Variant: VariantLZPAN, Domains: 8, Iters: 200, Seed: Table5Seed}},
	}
}

// VerifyProbe runs one chokepoint-monitored domain-switch probe with a
// trace recorder attached — the machine behind lzinspect -invariants. The
// returned result carries the final whole-machine report; the recorder holds
// one KindInvariant event per verifier run.
func VerifyProbe(plat Platform) (VerifyResult, *trace.Recorder, error) {
	env, err := NewEnv(plat)
	if err != nil {
		return VerifyResult{}, nil, err
	}
	rec := env.EnableTrace(4096)
	cfg := DomainSwitchConfig{Platform: plat, Variant: VariantLZTTBR, Domains: 8, Iters: 200, Seed: Table5Seed}
	res, err := verifyCell("ttbr-8", cfg, env.EnableInvariants())
	if err != nil {
		return VerifyResult{}, nil, err
	}
	return res, rec, nil
}

// VerifySweep runs every clean configuration with chokepoint verification
// enabled and a final post-run verification, one fleet cell per
// configuration. Any finding on these machines is an error: the verifier
// must hold exactly on the states the runtime constructs.
func (f *Fleet) VerifySweep(plat Platform) ([]VerifyResult, error) {
	cfgs := verifyConfigs(plat)
	out := make([]VerifyResult, len(cfgs))
	err := f.Run(len(cfgs), func(i int) error {
		c := cfgs[i]
		env, err := NewEnv(c.cfg.Platform)
		if err != nil {
			return fmt.Errorf("%s: %w", c.name, err)
		}
		env.EnableTrace(256)
		out[i], err = verifyCell(c.name, c.cfg, env.EnableInvariants())
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// verifyCell runs one configuration on the monitored machine to completion
// and verifies the state it leaves behind. A finding at any chokepoint or in
// the final report is an ErrFindings verdict naming the first finding.
func verifyCell(name string, cfg DomainSwitchConfig, mon *InvariantMonitor) (VerifyResult, error) {
	env := mon.env
	if _, _, err := runDomainSwitch(cfg, env); err != nil {
		return VerifyResult{}, fmt.Errorf("%s: %w", name, err)
	}
	if mon.Err != nil {
		return VerifyResult{}, fmt.Errorf("%s: %w", name, mon.Err)
	}
	if mon.Runs == 0 {
		return VerifyResult{}, fmt.Errorf("%s: invariant monitor never fired", name)
	}
	final, err := verify.RunMachineMemo(env.M, env.LZ, mon.memo)
	if err != nil {
		return VerifyResult{}, fmt.Errorf("%s: final verification: %w", name, err)
	}
	res := VerifyResult{
		Name:          name,
		Machine:       final.Machine,
		InvariantRuns: mon.Runs,
		Findings:      mon.Findings + len(final.Findings),
		Final:         final,
	}
	first := mon.First
	if first.Clean() {
		first = final
	}
	if !first.Clean() {
		return res, findingsf("%s: clean machine reported finding: %s", name, first.Findings[0])
	}
	return res, nil
}
