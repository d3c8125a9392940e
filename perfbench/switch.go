package main

import (
	"fmt"
	"os"
	"text/tabwriter"
	"time"

	"lightzone/internal/cpu"
	"lightzone/internal/kernel"
	"lightzone/internal/mem"
	"lightzone/internal/replay"
	"lightzone/internal/workload"
)

// switchIters is the iteration count of every switch cell: long enough that
// hot blocks stitch into traces and the run, not the set-up, dominates.
const switchIters = 30_000

// maxSwitchDomains is the largest domain count the switch program can
// express: it stores one domain index per byte, so 257 domains would
// silently measure exactly what 256 do.
const maxSwitchDomains = 256

// switchCell is one cell of the switch workload.
type switchCell struct {
	name  string
	cfg   workload.DomainSwitchConfig
	paper float64 // the paper's Table 5 cycles per switch; 0 when it has none
}

// paperTable5 holds the paper's Table 5 (cycles per switch and access),
// as quoted in EXPERIMENTS.md, keyed by platform row, variant and domains.
var paperTable5 = map[string]map[workload.Variant]map[int]float64{
	"Carmel Host": {
		workload.VariantWatchpoint: {1: 6759, 2: 6787, 3: 6944},
		workload.VariantLZPAN:      {1: 22},
		workload.VariantLZTTBR:     {2: 477, 3: 483, 32: 469, 64: 485, 128: 490},
	},
	"Carmel Guest": {
		workload.VariantWatchpoint: {1: 2710, 2: 2733, 3: 2721},
		workload.VariantLZPAN:      {1: 22},
		workload.VariantLZTTBR:     {2: 495, 3: 494, 32: 484, 64: 498, 128: 507},
	},
	"Cortex": {
		workload.VariantWatchpoint: {1: 915, 2: 930, 3: 927},
		workload.VariantLZPAN:      {1: 11},
		workload.VariantLZTTBR:     {2: 59, 3: 57, 32: 64, 64: 74, 128: 82},
	},
}

// checkSwitchConfig rejects a configuration the switch program cannot
// express faithfully.
func checkSwitchConfig(cfg workload.DomainSwitchConfig) error {
	if cfg.Domains < 1 || cfg.Domains > maxSwitchDomains {
		return fmt.Errorf("switch cell with %d domains: the program stores one domain index per byte, so 1 to %d domains are supported", cfg.Domains, maxSwitchDomains)
	}
	return nil
}

// switchCells is the Table 5 matrix plus a 256-domain TTBR cell per host
// platform, which puts the trace cache under pressure, all driven by the
// seed. The odd cell count keeps the median operation on one cell.
func switchCells(seed int64, iters int) ([]switchCell, error) {
	var cells []switchCell
	add := func(row string, p workload.Platform, v workload.Variant, domains int) error {
		cfg := workload.DomainSwitchConfig{Platform: p, Variant: v, Domains: domains, Iters: iters, Seed: seed}
		if err := checkSwitchConfig(cfg); err != nil {
			return err
		}
		cells = append(cells, switchCell{
			name:  fmt.Sprintf("%s/%s/%d", row, v, domains),
			cfg:   cfg,
			paper: paperTable5[row][v][domains],
		})
		return nil
	}
	for _, c := range workload.Table5Cells(iters) {
		if err := add(c.PlatformName, c.Platform, c.Variant, c.Domains); err != nil {
			return nil, err
		}
	}
	for _, row := range workload.Table5Platforms() {
		if row.Plat.Guest {
			continue
		}
		if err := add(row.Name, row.Plat, workload.VariantLZTTBR, maxSwitchDomains); err != nil {
			return nil, err
		}
	}
	return cells, nil
}

// switchOutcome is what a cell run must reproduce exactly.
type switchOutcome struct {
	measured int64
	digest   replay.Digest
}

// digestOf captures the finished machine's digest with the measured
// interval and exit state filled in.
func digestOf(env *workload.Env, p *kernel.Process, measured int64) replay.Digest {
	d := replay.CaptureDigest(env.M.CPU, env.M.PM)
	d.Measured = measured
	d.Killed, d.KillMsg = p.Killed, p.KillMsg
	return d
}

// finishCell checks how a cell run ended and reads its outcome.
func finishCell(env *workload.Env, p *kernel.Process, runErr error) (int64, error) {
	if runErr != nil {
		return 0, runErr
	}
	if p.Killed {
		return 0, fmt.Errorf("killed: %s", p.KillMsg)
	}
	return env.Measured()
}

// referenceRun runs a cell on the reference interpreter: decode cache,
// host fastpaths and traces off on its vCPU.
func referenceRun(cfg workload.DomainSwitchConfig) (switchOutcome, error) {
	cfg.DisableDecodeCache, cfg.DisableHostFastpaths = true, true
	env, p, err := workload.PrepareDomainSwitch(cfg)
	if err != nil {
		return switchOutcome{}, err
	}
	env.M.CPU.SetTraces(false)
	m, err := finishCell(env, p, env.Run(p, workload.DomainSwitchBudget(cfg)))
	if err != nil {
		return switchOutcome{}, err
	}
	return switchOutcome{measured: m, digest: digestOf(env, p, m)}, nil
}

// switchCounters sums one pass's guest-execution counters.
type switchCounters struct {
	insns                             int64
	run                               time.Duration
	codeHits, codeMisses, codeStale   uint64
	tlbHits, tlbMisses, codeInval     uint64
	mHits, mMisses                    uint64
	syscalls, faults, recycles, rolls int64
	frames                            uint64
	trace                             cpu.TraceStats
}

func startSwitch(b *bench) (func() error, error) {
	cells, err := switchCells(b.seed, switchIters)
	if err != nil {
		return nil, err
	}
	// The reference runs happen once, before and outside every pass.
	refs := make([]switchOutcome, len(cells))
	refErrs := make([]error, len(cells))
	for i, c := range cells {
		refs[i], refErrs[i] = referenceRun(c.cfg)
	}
	hostMS := make([][]float64, len(cells)) // per cell, one Env.Run per pass
	pass := func() error {
		var sc switchCounters
		t0 := cpu.ReadTraceStats()
		for i, c := range cells {
			d, err := runSwitchCell(b, c, refs[i], refErrs[i], &sc)
			if err == nil {
				hostMS[i] = append(hostMS[i], float64(d)/1e6)
			}
			b.attempt(err)
		}
		sc.trace = cpu.ReadTraceStats().Sub(t0)
		recordSwitchCounters(b, sc)
		if b.last {
			reportAccuracy(cells, refs, refErrs, hostMS)
		}
		return nil
	}
	return pass, nil
}

// runSwitchCell prepares, runs and checks one cell; only Env.Run is timed,
// and its duration is returned.
func runSwitchCell(b *bench, c switchCell, ref switchOutcome, refErr error, sc *switchCounters) (time.Duration, error) {
	var env *workload.Env
	var p *kernel.Process
	d, err := b.setupCall("workload", "workload.prepare", func() error {
		var err error
		env, p, err = workload.PrepareDomainSwitch(c.cfg)
		return err
	})
	if err != nil {
		return 0, fmt.Errorf("%s: prepare: %w", c.name, err)
	}
	b.sample("workload.prepare_us", us(d))
	v, k := env.M.CPU, env.K
	insns0, st0 := v.Insns, *v.Stats
	mi0, mim0, md0, mdm0 := v.MicroTLBStats()
	sys0, pf0, rc0, rl0 := k.Syscalls, k.PageFaults, k.ASIDRecycles, k.ASIDRolls
	var run time.Duration
	err = b.timed(func() error {
		var err error
		run, err = b.call("cpu", "cpu.run", func() error {
			return env.Run(p, workload.DomainSwitchBudget(c.cfg))
		})
		return err
	})
	sc.run += run
	mi1, mim1, md1, mdm1 := v.MicroTLBStats()
	sc.insns += v.Insns - insns0
	sc.codeHits += v.Stats.CodeHits - st0.CodeHits
	sc.codeMisses += v.Stats.CodeMisses - st0.CodeMisses
	sc.codeStale += v.Stats.CodeStale - st0.CodeStale
	sc.tlbHits += v.Stats.TLBHits - st0.TLBHits
	sc.tlbMisses += v.Stats.TLBMisses - st0.TLBMisses
	sc.codeInval += v.Stats.CodeInvalidations - st0.CodeInvalidations
	sc.mHits += (mi1 - mi0) + (md1 - md0)
	sc.mMisses += (mim1 - mim0) + (mdm1 - mdm0)
	sc.syscalls += k.Syscalls - sys0
	sc.faults += k.PageFaults - pf0
	sc.recycles += k.ASIDRecycles - rc0
	sc.rolls += k.ASIDRolls - rl0
	sc.frames += env.M.PM.AllocatedBytes() / mem.PageSize
	measured, err := finishCell(env, p, err)
	if err != nil {
		return 0, fmt.Errorf("%s: %w", c.name, err)
	}
	if refErr != nil {
		return 0, fmt.Errorf("%s: reference run: %w", c.name, refErr)
	}
	var got replay.Digest
	_, _ = b.call("replay", "replay.digest", func() error { // capturing a digest cannot fail
		got = digestOf(env, p, measured)
		return nil
	})
	if measured != ref.measured || !got.Equal(ref.digest) {
		return 0, fmt.Errorf("%s: result differs from the reference interpreter: measured %d vs %d; %s",
			c.name, measured, ref.measured, ref.digest.Delta(got))
	}
	return run, nil
}

func recordSwitchCounters(b *bench, sc switchCounters) {
	b.sample("emu_mips", ratio(float64(sc.insns), sc.run.Seconds())/1e6)
	b.sample("cpu.run_s", sc.run.Seconds())
	b.sample("cpu.insns", float64(sc.insns))
	b.sample("cpu.decode_hit_rate", ratio(float64(sc.codeHits), float64(sc.codeHits+sc.codeMisses)))
	b.sample("cpu.code_stale", float64(sc.codeStale))
	b.sample("cpu.mtlb_hit_rate", ratio(float64(sc.mHits), float64(sc.mHits+sc.mMisses)))
	recordTraceStats(b, sc.trace, sc.insns)
	b.sample("mem.tlb_hit_rate", ratio(float64(sc.tlbHits), float64(sc.tlbHits+sc.tlbMisses)))
	b.sample("mem.frames", float64(sc.frames))
	b.sample("mem.code_invalidations", float64(sc.codeInval))
	b.sample("kernel.syscalls", float64(sc.syscalls))
	b.sample("kernel.page_faults", float64(sc.faults))
	b.sample("kernel.asid_recycles", float64(sc.recycles))
	b.sample("kernel.asid_rolls", float64(sc.rolls))
}

// recordTraceStats samples the trace-compiler counters of one pass.
func recordTraceStats(b *bench, t cpu.TraceStats, insns int64) {
	b.sample("cpu.trace_insn_share", ratio(float64(t.InsnsRun), float64(insns)))
	b.sample("cpu.trace_stitched", float64(t.Stitched))
	b.sample("cpu.trace_side_exits", float64(t.SideExits))
	b.sample("cpu.trace_invalidated", float64(t.Invalidated))
	b.sample("cpu.trace_completion", ratio(float64(t.Completed), float64(t.Entered)))
}

// reportAccuracy prints, on standard error, each cell's emulated cycles
// per switch beside the paper's Table 5 value and the error, and beside it
// the host time of one Env.Run (median over passes). A host-only change
// must leave every column but the last unchanged.
func reportAccuracy(cells []switchCell, refs []switchOutcome, refErrs []error, hostMS [][]float64) {
	w := tabwriter.NewWriter(os.Stderr, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "cell\tcycles/switch\tpaper\terror\thost ms")
	for i, c := range cells {
		if refErrs[i] != nil {
			fmt.Fprintf(w, "%s\tfailed: %v\n", c.name, refErrs[i])
			continue
		}
		avg := float64(refs[i].measured) / float64(c.cfg.Iters)
		paper, errPct := "-", "-"
		if c.paper > 0 {
			paper = fmt.Sprintf("%.0f", c.paper)
			errPct = fmt.Sprintf("%+.1f%%", 100*(avg-c.paper)/c.paper)
		}
		fmt.Fprintf(w, "%s\t%.2f\t%s\t%s\t%.1f\n", c.name, avg, paper, errPct, median(hostMS[i]))
	}
	w.Flush()
}
