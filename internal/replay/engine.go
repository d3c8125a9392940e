package replay

import (
	"errors"
	"fmt"
	"sync"

	"lightzone/internal/kernel"
	"lightzone/internal/verify"
	"lightzone/internal/workload"
)

// ChaosResult is one chaos case's verdict. Pass means the case landed in
// its injection's expectation class; anything else is a silent divergence
// and fails the sweep.
type ChaosResult struct {
	Case      int    `json:"case"`
	Scenario  string `json:"scenario"`
	Injection string `json:"injection"`
	Expect    string `json:"expect"`
	// Outcome is what actually happened: identical, converged,
	// pan-footprint, killed, or flagged.
	Outcome string `json:"outcome"`
	Delta   string `json:"delta,omitempty"`
	Applied int    `json:"applied"` // how many boundaries the fault fired at
	Pass    bool   `json:"pass"`
	Failure string `json:"failure,omitempty"`
}

// chaosRunner caches per-(scenario, slice) baselines across a sweep. The
// baseline is deterministic, so concurrent cells computing it redundantly
// agree; the cache only saves work.
type chaosRunner struct {
	baselines sync.Map // "scenario/sliceTraps" -> *chaosBaseline
}

type chaosBaseline struct {
	once       sync.Once
	digest     Digest
	boundaries int
	err        error
}

// errStopRun is an internal sentinel: the case reached its verdict (a
// tamper was flagged) and the run must not continue.
var errStopRun = errors.New("chaos case decided")

// driveSlices runs p in trap-budget slices of size slice, invoking hook at
// every ErrTrapBudget boundary with the boundary index. A hook error stops
// the drive and is returned.
func driveSlices(env *workload.Env, p *kernel.Process, slice int64, hook func(boundary int) error) (boundaries int, err error) {
	const maxBoundaries = 1 << 20 // hard stop against a run that never exits
	for i := 0; ; i++ {
		if i >= maxBoundaries {
			return i, fmt.Errorf("run exceeded %d slice boundaries", maxBoundaries)
		}
		err := env.Run(p, slice)
		if err == nil {
			return i, nil
		}
		if !errors.Is(err, kernel.ErrTrapBudget) {
			return i, err
		}
		if hook != nil {
			if herr := hook(i); herr != nil {
				return i, herr
			}
		}
	}
}

// baseline runs the scenario undisturbed — sliced exactly like the
// perturbed run will be, so the only difference between the two drives is
// the injection itself — and caches the final digest and boundary count.
func (r *chaosRunner) baseline(scn Scenario, slice int64) (Digest, int, error) {
	key := fmt.Sprintf("%s/%d", scn.Name, slice)
	v, _ := r.baselines.LoadOrStore(key, &chaosBaseline{})
	b := v.(*chaosBaseline)
	b.once.Do(func() {
		env, p, err := workload.PrepareDomainSwitch(scn.Config())
		if err != nil {
			b.err = err
			return
		}
		n, err := driveSlices(env, p, slice, nil)
		if err != nil {
			b.err = err
			return
		}
		d := CaptureDigest(env.M.CPU, env.M.PM)
		d.Measured, err = env.Measured()
		if err != nil {
			b.err = fmt.Errorf("baseline measurement: %w", err)
			return
		}
		d.Killed, d.KillMsg = p.Killed, p.KillMsg
		if d.Killed {
			b.err = fmt.Errorf("baseline killed: %s", d.KillMsg)
			return
		}
		b.digest, b.boundaries = d, n
	})
	return b.digest, b.boundaries, b.err
}

// RunCase executes one chaos plan: baseline, perturbed run with the verify
// registry at every injection site, and the expectation-class comparison.
func (r *chaosRunner) RunCase(plan Plan) ChaosResult {
	res := ChaosResult{Case: plan.Case, Scenario: plan.Scenario, Injection: plan.Injection}
	fail := func(format string, args ...any) ChaosResult {
		res.Failure = fmt.Sprintf(format, args...)
		return res
	}
	scn, ok := ScenarioByName(plan.Scenario)
	if !ok {
		return fail("unknown scenario %q", plan.Scenario)
	}
	inj, ok := InjectionByName(plan.Injection)
	if !ok {
		return fail("unknown injection %q", plan.Injection)
	}
	res.Expect = string(inj.Expect)

	base, boundaries, err := r.baseline(scn, plan.SliceTraps)
	if err != nil {
		return fail("baseline: %v", err)
	}
	if boundaries == 0 {
		return fail("scenario %s finished inside one %d-trap slice; no injection point", scn.Name, plan.SliceTraps)
	}
	injAt := plan.InjectAt % boundaries

	env, p, err := workload.PrepareDomainSwitch(scn.Config())
	if err != nil {
		return fail("prepare: %v", err)
	}
	ctx := &InjectCtx{Env: env, Proc: p, Plan: plan}
	memo := verify.NewMemo()
	flagDetail := ""
	hook := func(boundary int) error {
		if boundary < injAt || res.Applied >= plan.Repeat {
			return nil
		}
		switch err := inj.Apply(ctx); {
		case errors.Is(err, ErrNotReady):
			return nil // retry at the next boundary
		case err != nil:
			return fmt.Errorf("apply %s: %w", inj.Name, err)
		}
		res.Applied++
		rep, err := verify.RunMachineMemo(env.M, env.LZ, memo)
		if err != nil {
			return fmt.Errorf("verify at injection site: %w", err)
		}
		if inj.Expect == ExpectFlagged {
			for _, f := range rep.Findings {
				if f.Checker == inj.Checker {
					flagDetail = f.String()
					return errStopRun
				}
			}
			return fmt.Errorf("tamper %s not flagged by %s (%d findings)", inj.Name, inj.Checker, len(rep.Findings))
		}
		if !rep.Clean() {
			return fmt.Errorf("verify reported %d findings after non-tamper injection %s (first: %s)",
				len(rep.Findings), inj.Name, rep.Findings[0].String())
		}
		if inj.Revert != nil {
			inj.Revert(ctx)
		}
		return nil
	}
	_, err = driveSlices(env, p, plan.SliceTraps, hook)
	if errors.Is(err, errStopRun) {
		res.Outcome, res.Delta, res.Pass = "flagged", flagDetail, true
		return res
	}
	if err != nil {
		return fail("%v", err)
	}
	if res.Applied == 0 {
		return fail("injection never applied (target not ready before the run ended)")
	}
	if inj.Expect == ExpectFlagged {
		return fail("run completed without the tamper being flagged")
	}

	pert := CaptureDigest(env.M.CPU, env.M.PM)
	// An enforcement kill can land inside the measurement window; -1
	// marks the half-open interval (it can never equal a real baseline
	// measurement, so the digest comparison still catches it).
	if m, merr := env.Measured(); merr == nil {
		pert.Measured = m
	} else {
		pert.Measured = -1
	}
	pert.Killed, pert.KillMsg = p.Killed, p.KillMsg
	res.Delta = base.Delta(pert)

	// A completed non-tamper run must still verify clean end-to-end.
	rep, err := verify.RunMachineMemo(env.M, env.LZ, memo)
	if err != nil {
		return fail("final verify: %v", err)
	}
	if !rep.Clean() {
		return fail("final verify reported %d findings (first: %s)", len(rep.Findings), rep.Findings[0].String())
	}

	switch inj.Expect {
	case ExpectIdentical:
		if base.Equal(pert) {
			res.Outcome, res.Pass = "identical", true
			return res
		}
		return fail("expected bit-identity: %s", res.Delta)
	case ExpectConverge:
		if base.Equal(pert) {
			res.Outcome, res.Pass = "identical", true
			return res
		}
		if base.StateEqual(pert) {
			res.Outcome, res.Pass = "converged", true
			return res
		}
		return fail("expected state convergence: %s", res.Delta)
	case ExpectEnforced:
		switch {
		case base.StateEqual(pert):
			res.Outcome, res.Pass = "converged", true
		case pert.Killed && !base.Killed:
			res.Outcome, res.Delta, res.Pass = "killed", "enforcement killed the process: "+pert.KillMsg, true
		case base.PANFootprintOnly(pert):
			res.Outcome, res.Pass = "pan-footprint", true
		default:
			return fail("expected convergence, kill, or PAN-bit footprint: %s", res.Delta)
		}
		return res
	}
	return fail("unhandled expectation %q", inj.Expect)
}

// RunChaosCase executes one chaos plan standalone.
func RunChaosCase(plan Plan) ChaosResult {
	var r chaosRunner
	return r.RunCase(plan)
}

// ChaosSweep derives n plans from seed and runs them as fleet cells.
// Results are index-ordered regardless of fleet width. The returned error
// covers only engine breakage; expectation misses are reported per-result
// so a sweep surfaces every silent divergence, not just the first.
func ChaosSweep(f *workload.Fleet, n int, seed int64) ([]ChaosResult, error) {
	plans := DerivePlans(n, seed)
	out := make([]ChaosResult, n)
	var r chaosRunner
	err := f.Run(n, func(i int) error {
		out[i] = r.RunCase(plans[i])
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// ChaosJournal pins a chaos case (typically a failing one) for replay.
func ChaosJournal(plan Plan, failure string) *Journal {
	scn, _ := ScenarioByName(plan.Scenario)
	return &Journal{
		Version: Version,
		Kind:    KindChaos,
		Chaos:   &ChaosCase{Scenario: scn, Plan: plan, Failure: failure},
	}
}
