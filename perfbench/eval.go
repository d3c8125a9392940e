package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"strings"

	"lightzone/internal/arm64"
	"lightzone/internal/cpu"
	"lightzone/internal/workload"
)

// evalReference is the output of `lzbench -all -json` (Table 5 at its
// default 10,000 iterations and fixed seed 42). auditReference is the output
// of `lzbench -invariants -json`. Both were produced by the same commit
// whose rows the benchmark reproduces; a row that differs is a failure.
var (
	//go:embed testdata/eval_reference.jsonl
	evalReference string
	//go:embed testdata/audit_reference.jsonl
	auditReference string
)

// fleetWidth keeps every workload within the two host CPUs.
const fleetWidth = 2

// evalIters is lzbench's default Table 5 iteration count.
const evalIters = 10_000

type row = map[string]any

// evalSuite is one suite of lzbench -all, rebuilt from its Fleet sweep with
// the exact rows lzbench emits.
type evalSuite struct {
	name string
	run  func(b *bench, f *workload.Fleet) ([]row, error)
}

var evalSuites = []evalSuite{
	{"table4", func(_ *bench, f *workload.Fleet) ([]row, error) {
		perProf, err := f.Table4Sweep()
		if err != nil {
			return nil, err
		}
		var rows []row
		for i, prof := range arm64.Profiles() {
			for _, r := range perProf[i] {
				rows = append(rows, row{"kind": "table4", "profile": prof.Name, "row": r.Name,
					"cycles_lo": r.Lo, "cycles_hi": r.Hi})
			}
		}
		return rows, nil
	}},
	{"table5", func(_ *bench, f *workload.Fleet) ([]row, error) {
		cells, err := f.Table5Sweep(evalIters)
		if err != nil {
			return nil, err
		}
		var rows []row
		for _, c := range cells {
			rows = append(rows, row{"kind": "table5", "platform": c.PlatformName, "variant": string(c.Variant),
				"domains": c.Domains, "iters": evalIters, "avg_cycles": c.Result.AvgCycles})
		}
		return rows, nil
	}},
	{"figure3", figureRows(3, workload.NginxMemory)},
	{"figure4", figureRows(4, workload.MySQLMemory)},
	{"figure5", figureRows(5, workload.NVMMemory)},
	{"pentest", func(_ *bench, f *workload.Fleet) ([]row, error) {
		var rows []row
		for _, plat := range workload.AllPlatforms() {
			results, err := f.PentestSweep(plat)
			if err != nil {
				return nil, err
			}
			for _, r := range results {
				rows = append(rows, row{"kind": "pentest", "platform": plat.String(), "attack": r.Attack,
					"blocked": r.Blocked, "detail": r.Detail})
			}
		}
		return rows, nil
	}},
	{"ablations", func(_ *bench, f *workload.Fleet) ([]row, error) {
		var rows []row
		for _, prof := range arm64.Profiles() {
			results, err := f.AblationSweep(prof)
			if err != nil {
				return nil, err
			}
			for _, r := range results {
				rows = append(rows, row{"kind": "ablation", "profile": prof.Name, "optimization": r.Name,
					"metric": r.Metric, "optimized": r.Optimized, "ablated": r.Ablated, "slowdown": r.Factor()})
			}
		}
		return rows, nil
	}},
}

// figureRows is one figure's suite: the figure sweep, then its §9 memory
// overheads on Cortex Host, as lzbench -all emits them.
func figureRows(fig int, memory func(workload.Platform) (workload.MemoryOverheads, error)) func(b *bench, f *workload.Fleet) ([]row, error) {
	return func(b *bench, f *workload.Fleet) ([]row, error) {
		cells, err := f.FigureSweep(fig)
		if err != nil {
			return nil, err
		}
		var rows []row
		for _, cell := range cells {
			plat := cell.Platform.String()
			for _, s := range cell.Series {
				for _, pt := range s.Points {
					rows = append(rows, row{"kind": "figure", "figure": fig, "platform": plat,
						"variant": string(s.Variant), "x": pt.X, "throughput": pt.Tput, "overhead_pct": s.OverheadPct})
				}
			}
			for _, s := range cell.NVM {
				for i, d := range workload.NVMDomainCounts {
					rows = append(rows, row{"kind": "figure", "figure": fig, "platform": plat,
						"variant": string(s.Variant), "domains": d, "overhead_pct": s.OverheadPct[i]})
				}
			}
		}
		plat := workload.AllPlatforms()[2]
		var m workload.MemoryOverheads
		d, err := b.call("workload", "eval.memory", func() error {
			var err error
			m, err = memory(plat)
			return err
		})
		b.memory += d
		if err != nil {
			return nil, err
		}
		return append(rows, row{"kind": "memory", "figure": fig, "platform": plat.String(),
			"baseline_bytes": m.BaselineBytes, "frag_pct": m.FragPct,
			"pan_pt_pct": m.PANPTPct, "ttbr_pt_pct": m.TTBRPTPct}), nil
	}
}

// evalSuiteOf names the suite that emits a reference row; a memory row
// belongs to its figure's suite.
func evalSuiteOf(line string) (string, error) {
	var r struct {
		Kind   string `json:"kind"`
		Figure int    `json:"figure"`
	}
	if err := json.Unmarshal([]byte(line), &r); err != nil {
		return "", err
	}
	switch r.Kind {
	case "figure", "memory":
		return fmt.Sprintf("figure%d", r.Figure), nil
	case "ablation":
		return "ablations", nil
	case "table4", "table5", "pentest":
		return r.Kind, nil
	}
	return "", fmt.Errorf("reference row of unknown kind %q", r.Kind)
}

// splitReference groups reference rows by the suite that emits them.
func splitReference(text string, suiteOf func(string) (string, error)) (map[string][]string, error) {
	out := map[string][]string{}
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		s, err := suiteOf(line)
		if err != nil {
			return nil, err
		}
		out[s] = append(out[s], line)
	}
	return out, nil
}

// compareRows checks emitted rows against the reference, byte for byte.
func compareRows(rows []row, want []string) error {
	if len(rows) != len(want) {
		return fmt.Errorf("%d rows, reference has %d", len(rows), len(want))
	}
	for i, r := range rows {
		b, err := json.Marshal(r)
		if err != nil {
			return err
		}
		if string(b) != want[i] {
			return fmt.Errorf("row %d differs from the reference:\n  got  %s\n  want %s", i, b, want[i])
		}
	}
	return nil
}

// processCounters samples the process-wide guest-execution counters of a
// pass whose machines were booted inside fleet sweeps.
type processCounters struct {
	hp cpu.HostPerf
	ts cpu.TraceStats
}

func readProcessCounters() processCounters {
	return processCounters{cpu.ReadHostPerf(), cpu.ReadTraceStats()}
}

func (b *bench) recordProcessCounters(before processCounters) {
	hp := cpu.ReadHostPerf().Sub(before.hp)
	ts := cpu.ReadTraceStats().Sub(before.ts)
	b.sample("emu_mips", ratio(float64(hp.Insns), b.wall.Seconds())/1e6)
	b.sample("cpu.insns", float64(hp.Insns))
	b.sample("cpu.decode_hit_rate", ratio(float64(hp.CodeHits), float64(hp.CodeHits+hp.CodeMisses)))
	b.sample("mem.tlb_hit_rate", ratio(float64(hp.TLBHits), float64(hp.TLBHits+hp.TLBMisses)))
	recordTraceStats(b, ts, hp.Insns)
}

// loadReference is the set-up of eval and audit: parse the reference rows
// and build the fleet, timed as set-up.
func loadReference(b *bench, text string, suiteOf func(string) (string, error)) (map[string][]string, *workload.Fleet, error) {
	var ref map[string][]string
	var f *workload.Fleet
	_, err := b.setupCall("bench", "bench.load_reference", func() error {
		var err error
		ref, err = splitReference(text, suiteOf)
		f = workload.NewFleet(fleetWidth)
		return err
	})
	return ref, f, err
}

func startEval(b *bench) (func() error, error) {
	pass := func() error {
		ref, f, err := loadReference(b, evalReference, evalSuiteOf)
		if err != nil {
			return err
		}
		before := readProcessCounters()
		b.memory = 0
		for _, s := range evalSuites {
			var rows []row
			err := b.timed(func() error {
				d, err := b.call("workload", "eval."+s.name, func() error {
					var err error
					rows, err = s.run(b, f)
					return err
				})
				b.sample("eval."+s.name+"_s", d.Seconds())
				return err
			})
			if err == nil {
				err = compareRows(rows, ref[s.name])
			}
			if err != nil {
				err = fmt.Errorf("%s: %w", s.name, err)
			}
			b.attempt(err)
		}
		b.sample("eval.memory_s", b.memory.Seconds())
		b.recordProcessCounters(before)
		return nil
	}
	return pass, nil
}

// auditSuiteOf keys an audit reference row by its platform.
func auditSuiteOf(line string) (string, error) {
	var r struct {
		Kind     string `json:"kind"`
		Platform string `json:"platform"`
	}
	if err := json.Unmarshal([]byte(line), &r); err != nil {
		return "", err
	}
	if r.Kind != "verify" {
		return "", fmt.Errorf("audit reference row of kind %q", r.Kind)
	}
	return r.Platform, nil
}

func startAudit(b *bench) (func() error, error) {
	pass := func() error {
		ref, f, err := loadReference(b, auditReference, auditSuiteOf)
		if err != nil {
			return err
		}
		before := readProcessCounters()
		invariantRuns := 0
		for _, plat := range workload.AllPlatforms() {
			var results []workload.VerifyResult
			err := b.timed(func() error {
				d, err := b.call("verify", "verify.sweep", func() error {
					var err error
					results, err = f.VerifySweep(plat)
					return err
				})
				b.sample("verify.cell_ms", float64(d)/1e6)
				return err
			})
			var rows []row
			for _, r := range results {
				invariantRuns += r.InvariantRuns
				rows = append(rows, row{"kind": "verify", "platform": plat.String(), "config": r.Name,
					"invariant_runs": r.InvariantRuns, "findings": r.Findings})
			}
			if err == nil {
				err = compareRows(rows, ref[plat.String()])
			}
			if err != nil {
				err = fmt.Errorf("%s: %w", plat, err)
			}
			b.attempt(err)
		}
		b.sample("verify.invariant_runs", float64(invariantRuns))
		b.recordProcessCounters(before)
		return nil
	}
	return pass, nil
}
