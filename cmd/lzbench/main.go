// Command lzbench regenerates the evaluation of "LightZone: Lightweight
// Hardware-Assisted In-Process Isolation for ARM64" (MIDDLEWARE '24):
// Table 4 (trap roundtrips), Table 5 (domain switching), Figures 3-5
// (Nginx, MySQL, NVM), the §9 memory overheads, and the §7.2 penetration
// tests — on the simulated Carmel and Cortex-A55 platforms.
//
// Usage:
//
//	lzbench -table 4            # trap roundtrip cycles
//	lzbench -table 5            # domain-switch cycles
//	lzbench -figure 3           # Nginx throughput (add -mem for §9.1 memory)
//	lzbench -figure 4           # MySQL throughput
//	lzbench -figure 5           # NVM overheads
//	lzbench -pentest            # §7.2 attack battery
//	lzbench -all                # everything
//	lzbench -all -json          # machine-readable: one JSON object per line
//	lzbench -all -parallel 8    # shard measurement cells over 8 workers
//	lzbench -backend all        # isolation-backend comparison matrix
//	lzbench -invariants         # static invariant verifier on the clean machines
//	lzbench -pentest -invariants # + planted-attack battery, caught statically
//	lzbench -all -record r.json # record the run into a replay journal
//	lzbench -replay r.json      # re-run the journal; rows must be byte-identical
//	lzbench -chaos 32           # fault-injection sweep: 32 derived chaos cases
//	lzbench -serve              # always-on service harness: utilization ladder
//	lzbench -serve -arrival bursty -rps 2000 -duration 1 -slo 500
//	lzbench -serve -json -serveout BENCH_PR7.json
//
// Every measurement cell boots a private machine, so -parallel N changes
// only wall-clock time: the emitted rows (emulated cycle counts included)
// are byte-identical for every N. Record/replay leans on exactly that:
// a journal replays correctly at any -parallel width.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"text/tabwriter"
	"time"

	"lightzone/internal/arm64"
	"lightzone/internal/cpu"
	"lightzone/internal/replay"
	"lightzone/internal/serve"
	"lightzone/internal/workload"
)

func main() {
	var (
		table    = flag.Int("table", 0, "regenerate table 4 or 5")
		figure   = flag.Int("figure", 0, "regenerate figure 3, 4 or 5")
		mem      = flag.Bool("mem", false, "with -figure: also report the memory overheads")
		pentest  = flag.Bool("pentest", false, "run the 7.2 penetration tests")
		ablation = flag.Bool("ablations", false, "measure the 5.2 optimization ablations")
		all      = flag.Bool("all", false, "run everything")
		iters    = flag.Int("iters", 10000, "domain-switch iterations (table 5)")
		csvDir   = flag.String("csv", "", "also write figure series as CSV files into this directory")
		jsonMode = flag.Bool("json", false, "emit one JSON object per table row / figure point instead of tables")
		invar    = flag.Bool("invariants", false, "run the static invariant verifier at every mutation chokepoint of the clean machines, plus the planted-attack battery with -pentest; off by default, and the default output is unchanged when off")
		backend  = flag.String("backend", "", "measure the isolation-backend comparison matrix for this backend (or \"all\"): domain-switch, per-page lz_mprotect and lz-syscall cycles under lightzone, overlay and granule; off by default and not part of -all")
		parallel = flag.Int("parallel", runtime.NumCPU(), "worker goroutines for the measurement sweeps (1 = fully sequential)")
		noFast   = flag.Bool("nofastpath", false, "disable the host-side fastpaths (micro-TLBs, block-resident run loop, batched charging); emitted rows must stay byte-identical")
		noDecode = flag.Bool("nodecode", false, "disable the decoded-block cache (the seed fetch/decode pipeline); emitted rows must stay byte-identical")
		noTrace  = flag.Bool("notrace", false, "disable the trace compiler (no superblock stitching; the PR 4 block-resident pipeline); emitted rows must stay byte-identical")
		proofAud = flag.Bool("proofaudit", false, "cross-check every cached-block replay against its static BlockProof (the abstract-interpretation artifact); summary on stderr, nonzero exit on any divergence, stdout byte-identical")
		hostPerf = flag.Bool("hostperf", false, "append one host-throughput row per suite (wall seconds, emulated insns/sec); off by default so the emitted rows never depend on the host")
		benchOut = flag.String("benchout", "", "write a machine-readable per-suite host-performance summary (JSON) to this file")
		cpuProf  = flag.String("cpuprofile", "", "write a host CPU profile to this file")
		memProf  = flag.String("memprofile", "", "write a host heap profile to this file")
		record   = flag.String("record", "", "record the run (config, nondeterministic inputs, emitted rows) into a replay journal at this path; implies -json")
		replayP  = flag.String("replay", "", "replay a recorded journal: re-run its suites under the recorded inputs and fail unless every row is byte-identical; implies -json")
		chaosN   = flag.Int("chaos", 0, "run a fault-injection sweep of this many derived chaos cases; every case must converge to its recorded baseline or be flagged by a named verify checker")
		chaosSd  = flag.Int64("chaosseed", 1, "seed for deriving the -chaos plans")
		chaosOut = flag.String("chaosout", "", "write one replayable journal per failing chaos case into this directory")
		serveF   = flag.Bool("serve", false, "run the always-on service harness: open-loop load against the long-lived serve apps under both zone-id regimes, with latency percentiles and throughput-at-SLO; off by default and not part of -all")
		arrivalF = flag.String("arrival", "poisson", "with -serve: arrival process (poisson or bursty)")
		rpsF     = flag.Float64("rps", 0, "with -serve: offered load in requests/sec; 0 sweeps the utilization ladder against each cell's measured capacity")
		durF     = flag.Float64("duration", serve.DefaultDurationS, "with -serve: virtual seconds of offered load per operating point")
		sloF     = flag.Float64("slo", 0, "with -serve: latency SLO in microseconds; 0 derives 4x each cell's mean service time")
		serveOut = flag.String("serveout", "", "with -serve: also write the full serve cells (calibration, churn pressure, rows) as JSON to this file")
	)
	flag.Parse()
	csvOut = *csvDir
	jsonOut = *jsonMode
	invariants = *invar
	backendSel = *backend
	hostPerfOn = *hostPerf
	benchOutPath = *benchOut
	serveOn = *serveF
	serveArrival = *arrivalF
	serveRPS = *rpsF
	serveDur = *durF
	serveSLO = *sloF
	serveOutPath = *serveOut
	if *noFast {
		cpu.SetHostFastpathDefault(false)
	}
	if *noDecode {
		cpu.SetDecodeCacheDefault(false)
	}
	if *noTrace {
		cpu.SetTraceDefault(false)
	}
	if *proofAud {
		cpu.SetProofAuditDefault(true)
	}
	fleet = workload.NewFleet(*parallel)
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "lzbench:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "lzbench:", err)
			os.Exit(1)
		}
	}
	err := dispatch(*table, *figure, *mem, *pentest, *ablation, *all, *iters,
		*parallel, *noFast, *noDecode, *noTrace, *record, *replayP, *chaosN, *chaosSd, *chaosOut)
	if *cpuProf != "" {
		pprof.StopCPUProfile()
	}
	if err == nil && benchOutPath != "" {
		err = writeBenchOut(benchOutPath)
	}
	if err == nil && serveOutPath != "" {
		err = writeServeOut(serveOutPath)
	}
	if err == nil && *memProf != "" {
		err = writeMemProfile(*memProf)
	}
	if err == nil && *proofAud {
		err = reportProofAudit()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "lzbench:", err)
		os.Exit(1)
	}
}

// reportProofAudit summarizes the block-proof oracle on stderr and fails
// the run when any completed replay contradicted its static proof. The
// auditor is observation-only, so stdout stays byte-identical to a run
// without the flag.
func reportProofAudit() error {
	st := cpu.ReadProofAudit()
	fmt.Fprintf(os.Stderr,
		"lzbench: proofaudit: %d spans (%d finished, %d abandoned), %d divergences\n",
		st.Spans, st.Finished, st.Abandoned, st.Divergences)
	for _, d := range st.Details {
		fmt.Fprintf(os.Stderr, "  %s\n", d)
	}
	if st.Divergences > 0 {
		return fmt.Errorf("proofaudit: %d divergences between static block proofs and execution", st.Divergences)
	}
	return nil
}

// dispatch routes between the measurement path (optionally recorded), a
// journal replay, and a chaos sweep.
func dispatch(table, figure int, mem, pentest, ablation, all bool, iters,
	parallel int, noFast, noDecode, noTrace bool, record, replayPath string,
	chaosN int, chaosSeed int64, chaosOut string) error {
	modes := 0
	for _, on := range []bool{record != "", replayPath != "", chaosN > 0} {
		if on {
			modes++
		}
	}
	if modes > 1 {
		return fmt.Errorf("-record, -replay and -chaos are mutually exclusive")
	}
	if chaosN > 0 {
		return runChaos(chaosN, chaosSeed, chaosOut)
	}
	if (record != "" || replayPath != "") && hostPerfOn {
		return fmt.Errorf("-hostperf rows depend on the host and cannot be recorded or replayed")
	}
	if replayPath != "" {
		return runReplay(replayPath)
	}
	spec := runSpec{
		suites: suitesFromFlags(table, figure, pentest, ablation, all),
		iters:  iters,
		mem:    mem || all,
	}
	if record != "" {
		return runRecord(record, spec, parallel, noFast, noDecode, noTrace)
	}
	return run(spec)
}

// runRecord executes the run with row capture and input recording on, then
// seals everything into a journal.
func runRecord(path string, spec runSpec, parallel int, noFast, noDecode, noTrace bool) error {
	if len(spec.suites) == 0 {
		return fmt.Errorf("-record needs at least one suite (e.g. -all)")
	}
	jsonOut = true
	capture = []string{}
	source = replay.NewRecording()
	if err := run(spec); err != nil {
		return err
	}
	if err := source.Err(); err != nil {
		return err
	}
	j := &replay.Journal{
		Version: replay.Version,
		Kind:    replay.KindBench,
		Config: replay.RunConfig{
			Suites:     spec.suites,
			Iters:      spec.iters,
			Mem:        spec.mem,
			Seed:       workload.Table5Seed,
			Parallel:   parallel,
			NoFastpath: noFast,
			NoDecode:   noDecode,
			NoTrace:    noTrace,
			Invariants: invariants,
			Backend:    backendSel,
		},
	}
	if serveOn {
		j.Config.Arrival = serveArrival
		j.Config.RPS = serveRPS
		j.Config.DurationS = serveDur
		j.Config.SLOMicros = serveSLO
	}
	j.Inputs = source.Inputs()
	j.Rows = capture
	j.Seal()
	if err := j.Write(path); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "lzbench: recorded %d rows into %s\n", len(j.Rows), path)
	return nil
}

// runReplay re-executes a journal's suites under its recorded inputs and
// compares the emitted rows byte for byte. The current -parallel width is
// deliberately kept: a journal must replay identically at any width.
func runReplay(path string) error {
	j, err := replay.ReadJournal(path)
	if err != nil {
		return err
	}
	if j.Kind != replay.KindBench {
		return fmt.Errorf("%s: journal kind %q; lzbench replays bench journals (use lzreplay for %q)", path, j.Kind, j.Kind)
	}
	jsonOut = true
	invariants = j.Config.Invariants
	// The backend selector is part of the recorded boundary: a journal whose
	// suites include the comparison matrix replays it at the same scope.
	backendSel = j.Config.Backend
	// Likewise the serve-harness settings; the keyed inputs cross-check them.
	for _, s := range j.Config.Suites {
		if s == "serve" {
			serveOn = true
			serveArrival = j.Config.Arrival
			serveRPS = j.Config.RPS
			serveDur = j.Config.DurationS
			serveSLO = j.Config.SLOMicros
		}
	}
	if j.Config.NoFastpath {
		cpu.SetHostFastpathDefault(false)
	}
	if j.Config.NoDecode {
		cpu.SetDecodeCacheDefault(false)
	}
	if j.Config.NoTrace {
		cpu.SetTraceDefault(false)
	}
	capture = []string{}
	source = replay.NewReplaying(j.Inputs)
	spec := runSpec{suites: j.Config.Suites, iters: j.Config.Iters, mem: j.Config.Mem}
	if err := run(spec); err != nil {
		return err
	}
	if err := source.Err(); err != nil {
		return err
	}
	diffs := replay.DiffRows(j.Rows, capture, 10)
	if len(diffs) > 0 {
		fmt.Fprintf(os.Stderr, "lzbench: replay DIVERGED from %s: %d of %d recorded rows differ (first %d shown)\n",
			path, countDiffs(j.Rows, capture), len(j.Rows), len(diffs))
		for _, d := range diffs {
			fmt.Fprintf(os.Stderr, "  row %d:\n    recorded: %s\n    replayed: %s\n", d.Index, d.A, d.B)
		}
		return fmt.Errorf("replay diverged")
	}
	fmt.Fprintf(os.Stderr, "lzbench: replay of %s byte-identical (%d rows)\n", path, len(capture))
	return nil
}

func countDiffs(a, b []string) int {
	return len(replay.DiffRows(a, b, max(len(a), len(b))+1))
}

// runChaos derives and runs the fault-injection sweep. Every case must land
// in its injection's expectation class; each failing case is journalled for
// standalone replay when -chaosout is set.
func runChaos(n int, seed int64, outDir string) error {
	results, err := replay.ChaosSweep(fleet, n, seed)
	if err != nil {
		return err
	}
	failed := 0
	for _, r := range results {
		if jsonOut {
			if err := emitJSON(map[string]any{
				"kind": "chaos", "case": r.Case, "scenario": r.Scenario,
				"injection": r.Injection, "expect": r.Expect, "outcome": r.Outcome,
				"applied": r.Applied, "pass": r.Pass, "delta": r.Delta, "failure": r.Failure,
			}); err != nil {
				return err
			}
		} else {
			status := "ok  "
			if !r.Pass {
				status = "FAIL"
			}
			fmt.Printf("  %s case %2d  %-13s %-18s expect=%-9s outcome=%-12s applied=%d",
				status, r.Case, r.Scenario, r.Injection, r.Expect, r.Outcome, r.Applied)
			if r.Delta != "" {
				fmt.Printf("  (%s)", r.Delta)
			}
			if r.Failure != "" {
				fmt.Printf("  %s", r.Failure)
			}
			fmt.Println()
		}
		if !r.Pass {
			failed++
			if outDir != "" {
				plans := replay.DerivePlans(n, seed)
				j := replay.ChaosJournal(plans[r.Case], r.Failure)
				p := fmt.Sprintf("%s/chaos-case-%03d.journal.json", outDir, r.Case)
				if err := j.Write(p); err != nil {
					return err
				}
				fmt.Fprintf(os.Stderr, "lzbench: journalled failing chaos case %d at %s\n", r.Case, p)
			}
		}
	}
	if failed > 0 {
		return fmt.Errorf("chaos sweep: %d of %d cases diverged silently or missed their expectation class", failed, n)
	}
	if !jsonOut {
		fmt.Printf("chaos sweep: all %d cases landed in their expectation class\n", n)
	}
	return nil
}

func writeMemProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	runtime.GC()
	return pprof.WriteHeapProfile(f)
}

// fleet shards every sweep's measurement cells across workers; results are
// collected by cell index, so output ordering never depends on the width.
var fleet *workload.Fleet

// runSpec names the suites to execute, in the canonical emission order
// suitesFromFlags produces. Replays rebuild it from the journal instead of
// the command line, so a journal is self-contained.
type runSpec struct {
	suites []string
	iters  int
	mem    bool
}

// suitesFromFlags maps the selection flags onto the ordered suite list.
func suitesFromFlags(table, figure int, pentest, ablation, all bool) []string {
	var s []string
	if all || table == 4 {
		s = append(s, "table4")
	}
	if all || table == 5 {
		s = append(s, "table5")
	}
	for _, f := range []int{3, 4, 5} {
		if all || figure == f {
			s = append(s, fmt.Sprintf("figure%d", f))
		}
	}
	if all || pentest {
		s = append(s, "pentest")
	}
	if all || ablation {
		s = append(s, "ablations")
	}
	if invariants {
		s = append(s, "invariants")
	}
	if backendSel != "" {
		s = append(s, "backends")
	}
	// Deliberately opt-in only: the serve harness is continuous-load
	// territory, not part of -all.
	if serveOn {
		s = append(s, "serve")
	}
	return s
}

func run(spec runSpec) error {
	if len(spec.suites) == 0 {
		flag.Usage()
		return nil
	}
	// The cost-model axis: a replayed journal must see the same platform
	// profile set the recording did.
	if profs := source.Int64("platform/profiles", replay.Fixed(int64(len(arm64.Profiles())))); profs != int64(len(arm64.Profiles())) {
		return fmt.Errorf("journal recorded %d platform profiles, this build has %d", profs, len(arm64.Profiles()))
	}
	for _, name := range spec.suites {
		var fn func() error
		switch name {
		case "table4":
			fn = printTable4
		case "table5":
			// The iteration budget and workload seed are nondeterministic
			// inputs at the journal boundary: recording pins them, replaying
			// restores the pinned budget and cross-checks the seed against
			// the build's constant.
			iters := int(source.Int64("table5/iters", replay.Fixed(int64(spec.iters))))
			seed := source.Int64("table5/seed", replay.Fixed(workload.Table5Seed))
			if seed != workload.Table5Seed {
				return fmt.Errorf("journal recorded table5 seed %d, this build uses %d", seed, workload.Table5Seed)
			}
			fn = func() error { return printTable5(iters) }
		case "figure3", "figure4", "figure5":
			f := int(name[len(name)-1] - '0')
			fn = func() error { return printFigure(f, spec.mem) }
		case "pentest":
			fn = printPentest
		case "ablations":
			fn = printAblations
		case "invariants":
			fn = printVerify
		case "backends":
			// The comparison matrix shares table 5's iteration budget; the
			// journal pins it the same way.
			iters := int(source.Int64("backends/iters", replay.Fixed(int64(spec.iters))))
			fn = func() error { return printBackends(iters) }
		case "serve":
			// Every serve setting is a nondeterministic input at the journal
			// boundary; floats are pinned in fixed-point (milli-rps,
			// milli-seconds, nano-seconds) so the draw is an exact int64.
			ar, err := serve.ParseArrival(serveArrival)
			if err != nil {
				return err
			}
			arrivalCode := int64(0)
			if ar == serve.ArrivalBursty {
				arrivalCode = 1
			}
			arrivalCode = source.Int64("serve/arrival", replay.Fixed(arrivalCode))
			rps := float64(source.Int64("serve/rps_milli", replay.Fixed(int64(serveRPS*1000)))) / 1000
			dur := float64(source.Int64("serve/duration_ms", replay.Fixed(int64(serveDur*1000)))) / 1000
			slo := float64(source.Int64("serve/slo_ns", replay.Fixed(int64(serveSLO*1000)))) / 1000
			queue := int(source.Int64("serve/queue", replay.Fixed(serve.DefaultQueueBound)))
			seed := source.Int64("serve/seed", replay.Fixed(serve.DefaultSeed))
			cfg := serve.Config{
				Arrival:    serve.ArrivalPoisson,
				RPS:        rps,
				DurationS:  dur,
				SLOMicros:  slo,
				QueueBound: queue,
				Seed:       seed,
			}
			if arrivalCode == 1 {
				cfg.Arrival = serve.ArrivalBursty
			}
			fn = func() error { return printServe(cfg) }
		default:
			return fmt.Errorf("unknown suite %q", name)
		}
		if err := measure(name, fn); err != nil {
			return err
		}
	}
	return nil
}

// hostPerfOn appends a host-throughput row per suite; benchOutPath collects
// the same rows into a JSON summary file. Both are host-side observability:
// with both off, measurement output is byte-identical run to run.
var (
	hostPerfOn   bool
	benchOutPath string
	suitePerfs   []suitePerf
)

// suitePerf is one suite's host-performance summary: wall time, emulated
// work, and how the host-side caches fared while producing it.
type suitePerf struct {
	Suite         string  `json:"suite"`
	WallSeconds   float64 `json:"wall_seconds"`
	EmulatedInsns int64   `json:"emulated_insns"`
	EmulatedMIPS  float64 `json:"emulated_mips"`
	TLBHitRate    float64 `json:"tlb_hit_rate"`
	DecodeHitRate float64 `json:"decode_hit_rate"`

	// Trace-compiler counters for the suite's window: the fraction of
	// emulated instructions retired inside stitched traces, plus the
	// stitch/invalidation churn behind that rate.
	TraceHitRate     float64 `json:"trace_hit_rate"`
	TraceStitched    uint64  `json:"trace_stitched"`
	TraceSideExits   uint64  `json:"trace_side_exits"`
	TraceInvalidated uint64  `json:"trace_invalidated"`
	TraceFused       uint64  `json:"trace_fused"`
}

func rate(hits, misses int64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

// measure runs one suite printer, recording wall time and the emulated-work
// delta when -hostperf or -benchout asked for them.
func measure(name string, fn func() error) error {
	if !hostPerfOn && benchOutPath == "" {
		return fn()
	}
	before := cpu.ReadHostPerf()
	beforeT := cpu.ReadTraceStats()
	start := time.Now()
	if err := fn(); err != nil {
		return err
	}
	wall := time.Since(start).Seconds()
	d := cpu.ReadHostPerf().Sub(before)
	dt := cpu.ReadTraceStats().Sub(beforeT)
	sp := suitePerf{
		Suite:         name,
		WallSeconds:   wall,
		EmulatedInsns: d.Insns,
		EmulatedMIPS:  float64(d.Insns) / 1e6 / wall,
		TLBHitRate:    rate(d.TLBHits, d.TLBMisses),
		DecodeHitRate: rate(d.CodeHits, d.CodeMisses),
	}
	if d.Insns > 0 {
		sp.TraceHitRate = float64(dt.InsnsRun) / float64(d.Insns)
	}
	sp.TraceStitched = dt.Stitched
	sp.TraceSideExits = dt.SideExits
	sp.TraceInvalidated = dt.Invalidated
	sp.TraceFused = dt.Fused
	suitePerfs = append(suitePerfs, sp)
	if hostPerfOn {
		if jsonOut {
			return emitJSON(map[string]any{
				"kind": "hostperf", "suite": sp.Suite, "wall_seconds": sp.WallSeconds,
				"emulated_insns": sp.EmulatedInsns, "emulated_mips": sp.EmulatedMIPS,
				"tlb_hit_rate": sp.TLBHitRate, "decode_hit_rate": sp.DecodeHitRate,
				"trace_hit_rate": sp.TraceHitRate, "trace_stitched": sp.TraceStitched,
				"trace_side_exits": sp.TraceSideExits, "trace_invalidated": sp.TraceInvalidated,
				"trace_fused": sp.TraceFused,
			})
		}
		fmt.Printf("host: %s in %.3fs — %d emulated insns, %.1f MIPS, TLB hit %.1f%%, decode hit %.1f%%, trace hit %.1f%%\n\n",
			sp.Suite, sp.WallSeconds, sp.EmulatedInsns, sp.EmulatedMIPS,
			100*sp.TLBHitRate, 100*sp.DecodeHitRate, 100*sp.TraceHitRate)
	}
	return nil
}

// writeBenchOut writes the per-suite summaries plus a total line.
func writeBenchOut(path string) error {
	total := suitePerf{Suite: "total"}
	for _, sp := range suitePerfs {
		total.WallSeconds += sp.WallSeconds
		total.EmulatedInsns += sp.EmulatedInsns
	}
	if total.WallSeconds > 0 {
		total.EmulatedMIPS = float64(total.EmulatedInsns) / 1e6 / total.WallSeconds
	}
	agg := cpu.ReadHostPerf()
	total.TLBHitRate = rate(agg.TLBHits, agg.TLBMisses)
	total.DecodeHitRate = rate(agg.CodeHits, agg.CodeMisses)
	aggT := cpu.ReadTraceStats()
	if agg.Insns > 0 {
		total.TraceHitRate = float64(aggT.InsnsRun) / float64(agg.Insns)
	}
	total.TraceStitched = aggT.Stitched
	total.TraceSideExits = aggT.SideExits
	total.TraceInvalidated = aggT.Invalidated
	total.TraceFused = aggT.Fused
	out := struct {
		Fastpaths   bool                     `json:"fastpaths"`
		DecodeCache bool                     `json:"decode_cache"`
		Traces      bool                     `json:"traces"`
		Suites      []suitePerf              `json:"suites"`
		Total       suitePerf                `json:"total"`
		TraceTotals cpu.TraceStats           `json:"trace_totals"`
		Backends    []workload.BackendMatrix `json:"backends,omitempty"`
	}{
		Fastpaths:   cpu.HostFastpathDefault(),
		DecodeCache: cpu.DecodeCacheDefault(),
		Traces:      cpu.TraceDefault(),
		Suites:      suitePerfs,
		Total:       total,
		TraceTotals: aggT,
		Backends:    backendMatrices,
	}
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// jsonOut switches every printer to line-delimited JSON.
var jsonOut bool

// capture, when non-nil, accumulates every emitted JSON row for the journal
// (-record) or the byte-identity comparison (-replay). source supplies the
// nondeterministic draws; a nil source passes generators through untouched,
// so plain runs are unaffected.
var (
	capture []string
	source  *replay.Source
)

// emitJSON writes one self-describing result object per line; kind names
// the table/figure so mixed -all output stays filterable with jq.
func emitJSON(obj map[string]any) error {
	b, err := json.Marshal(obj)
	if err != nil {
		return err
	}
	if capture != nil {
		capture = append(capture, string(b))
	}
	_, err = fmt.Println(string(b))
	return err
}

func printTable4() error {
	perProf, err := fleet.Table4Sweep()
	if err != nil {
		return err
	}
	if jsonOut {
		for i, prof := range arm64.Profiles() {
			for _, r := range perProf[i] {
				if err := emitJSON(map[string]any{
					"kind": "table4", "profile": prof.Name, "row": r.Name,
					"cycles_lo": r.Lo, "cycles_hi": r.Hi,
				}); err != nil {
					return err
				}
			}
		}
		return nil
	}
	fmt.Println("Table 4: cycles spent on empty trap-and-return roundtrips")
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "\tCarmel\tCortex A55")
	byProf := map[string][]workload.Table4Row{}
	for i, prof := range arm64.Profiles() {
		byProf[prof.Name] = perProf[i]
	}
	carmel, cortex := byProf["Carmel"], byProf["CortexA55"]
	for i := range carmel {
		fmt.Fprintf(w, "%s\t%s\t%s\n", carmel[i].Name, band(carmel[i]), band(cortex[i]))
	}
	w.Flush()
	fmt.Println()
	return nil
}

func band(r workload.Table4Row) string {
	if r.Lo == r.Hi {
		return fmt.Sprintf("%d", r.Lo)
	}
	return fmt.Sprintf("%d~%d", r.Lo, r.Hi)
}

func printTable5(iters int) error {
	cells, err := fleet.Table5Sweep(iters)
	if err != nil {
		return err
	}
	if jsonOut {
		// Cells come back in the sweep's enumeration order, which is the
		// historical sequential emission order.
		for _, c := range cells {
			if err := emitJSON(map[string]any{
				"kind": "table5", "platform": c.PlatformName, "variant": string(c.Variant),
				"domains": c.Domains, "iters": iters, "avg_cycles": c.Result.AvgCycles,
			}); err != nil {
				return err
			}
		}
		return nil
	}
	// Index the collected cells for the two-line-per-platform rendering.
	wpCycles := map[string]map[int]float64{}
	lzCycles := map[string]map[int]float64{}
	for _, c := range cells {
		m := lzCycles
		if c.Variant == workload.VariantWatchpoint {
			m = wpCycles
		}
		if m[c.PlatformName] == nil {
			m[c.PlatformName] = map[int]float64{}
		}
		m[c.PlatformName][c.Domains] = c.Result.AvgCycles
	}
	domains := workload.Table5Domains
	fmt.Printf("Table 5: average cycles of switches (with secure call gate) between protected domains (%d iterations)\n", iters)
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprint(w, "\t\t1 (PAN)")
	for _, d := range domains[1:] {
		fmt.Fprintf(w, "\t%d", d)
	}
	fmt.Fprintln(w)
	for _, row := range workload.Table5Platforms() {
		fmt.Fprintf(w, "%s\tWatchpoint", row.Name)
		for i, d := range domains {
			if d > 16 || i >= 3 {
				fmt.Fprint(w, "\t-")
				continue
			}
			fmt.Fprintf(w, "\t%.0f", wpCycles[row.Name][d])
		}
		fmt.Fprintln(w)
		fmt.Fprintf(w, "\tLightZone")
		for _, d := range domains {
			fmt.Fprintf(w, "\t%.0f", lzCycles[row.Name][d])
		}
		fmt.Fprintln(w)
	}
	w.Flush()
	fmt.Println()
	return nil
}

func printFigure(f int, withMem bool) error {
	names := map[int]string{
		3: "Figure 3: Nginx HTTPS throughput (1 worker, 1KB file)",
		4: "Figure 4: MySQL sysbench OLTP read-write throughput",
		5: "Figure 5: NVM data-structure benchmark time overhead",
	}
	if !jsonOut {
		fmt.Println(names[f])
	}
	cells, err := fleet.FigureSweep(f)
	if err != nil {
		return err
	}
	for _, cell := range cells {
		plat := cell.Platform
		if !jsonOut {
			fmt.Printf("  %s:\n", plat)
		}
		switch f {
		case 3, 4:
			series := cell.Series
			if err := writeFigureCSV(f, plat, series); err != nil {
				return err
			}
			if jsonOut {
				for _, s := range series {
					for _, pt := range s.Points {
						if err := emitJSON(map[string]any{
							"kind": "figure", "figure": f, "platform": plat.String(),
							"variant": string(s.Variant), "x": pt.X,
							"throughput": pt.Tput, "overhead_pct": s.OverheadPct,
						}); err != nil {
							return err
						}
					}
				}
				continue
			}
			w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
			fmt.Fprint(w, "    variant")
			for _, pt := range series[0].Points {
				fmt.Fprintf(w, "\tc=%d", pt.X)
			}
			fmt.Fprintln(w, "\tloss")
			for _, s := range series {
				fmt.Fprintf(w, "    %s", s.Variant)
				for _, pt := range s.Points {
					fmt.Fprintf(w, "\t%.0f", pt.Tput)
				}
				fmt.Fprintf(w, "\t%.2f%%\n", s.OverheadPct)
			}
			w.Flush()
		case 5:
			series := cell.NVM
			if err := writeNVMCSV(plat, series); err != nil {
				return err
			}
			if jsonOut {
				for _, s := range series {
					for i, d := range workload.NVMDomainCounts {
						if err := emitJSON(map[string]any{
							"kind": "figure", "figure": f, "platform": plat.String(),
							"variant": string(s.Variant), "domains": d,
							"overhead_pct": s.OverheadPct[i],
						}); err != nil {
							return err
						}
					}
				}
				continue
			}
			w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
			fmt.Fprint(w, "    variant")
			for _, d := range workload.NVMDomainCounts {
				fmt.Fprintf(w, "\tD=%d", d)
			}
			fmt.Fprintln(w)
			for _, s := range series {
				fmt.Fprintf(w, "    %s", s.Variant)
				for _, pct := range s.OverheadPct {
					fmt.Fprintf(w, "\t%.2f%%", pct)
				}
				fmt.Fprintln(w)
			}
			w.Flush()
		}
	}
	if withMem {
		plat := workload.AllPlatforms()[2]
		var m workload.MemoryOverheads
		var err error
		switch f {
		case 3:
			m, err = workload.NginxMemory(plat)
		case 4:
			m, err = workload.MySQLMemory(plat)
		case 5:
			m, err = workload.NVMMemory(plat)
		}
		if err != nil {
			return err
		}
		if jsonOut {
			return emitJSON(map[string]any{
				"kind": "memory", "figure": f, "platform": plat.String(),
				"baseline_bytes": m.BaselineBytes, "frag_pct": m.FragPct,
				"pan_pt_pct": m.PANPTPct, "ttbr_pt_pct": m.TTBRPTPct,
			})
		}
		fmt.Printf("  memory: baseline %.1fMB, fragmentation/app overhead %.1f%%, page tables PAN %.1f%% / TTBR %.1f%%\n",
			float64(m.BaselineBytes)/(1<<20), m.FragPct, m.PANPTPct, m.TTBRPTPct)
	}
	if !jsonOut {
		fmt.Println()
	}
	return nil
}

func printPentest() error {
	if !jsonOut {
		fmt.Println("Penetration tests (7.2): 128 protected domains")
	}
	for _, plat := range workload.AllPlatforms() {
		results, err := fleet.PentestSweep(plat)
		if err != nil {
			return err
		}
		if jsonOut {
			for _, r := range results {
				if err := emitJSON(map[string]any{
					"kind": "pentest", "platform": plat.String(), "attack": r.Attack,
					"blocked": r.Blocked, "detail": r.Detail,
				}); err != nil {
					return err
				}
			}
			continue
		}
		fmt.Printf("  %s:\n", plat)
		for _, r := range results {
			status := "survived (legitimate)"
			if r.Blocked {
				status = "BLOCKED"
			}
			fmt.Printf("    %-34s %s\n", r.Attack, status)
			if r.Blocked {
				fmt.Printf("      %s\n", strings.TrimPrefix(r.Detail, "lightzone violation: "))
			}
		}
	}
	if invariants {
		if err := printPlanted(); err != nil {
			return err
		}
	}
	if !jsonOut {
		fmt.Println()
	}
	return nil
}

// invariants switches the verification lanes on: chokepoint-monitored clean
// runs after the benchmarks, and the planted-attack battery with -pentest.
// Off (the default) every emitted byte is identical to a build without the
// verifier.
var invariants bool

// printVerify re-runs the clean Table 5 machines with the static invariant
// verifier attached to every mutation chokepoint.
func printVerify() error {
	if !jsonOut {
		fmt.Println("Static invariant verification (chokepoint-monitored clean machines)")
	}
	for _, plat := range workload.AllPlatforms() {
		results, err := fleet.VerifySweep(plat)
		if err != nil {
			return err
		}
		if jsonOut {
			for _, r := range results {
				if err := emitJSON(map[string]any{
					"kind": "verify", "platform": plat.String(), "config": r.Name,
					"invariant_runs": r.InvariantRuns, "findings": r.Findings,
				}); err != nil {
					return err
				}
			}
			continue
		}
		fmt.Printf("  %s:\n", plat)
		for _, r := range results {
			fmt.Printf("    %-10s %3d invariant runs, %d findings\n", r.Name, r.InvariantRuns, r.Findings)
		}
	}
	if !jsonOut {
		fmt.Println()
	}
	return nil
}

// backendSel selects the isolation-backend comparison matrix: a backend
// name restricts the matrix to that backend, "all" measures every
// registered backend side by side. Empty (the default) skips the suite.
var backendSel string

// backendMatrices collects the measured matrices for -benchout.
var backendMatrices []workload.BackendMatrix

// Serve-harness selection (flag-fed in plain runs, journal-fed in replays)
// and the cells collected for -serveout.
var (
	serveOn      bool
	serveArrival string
	serveRPS     float64
	serveDur     float64
	serveSLO     float64
	serveOutPath string
	serveCells   []serve.Cell
)

// printServe runs the always-on service harness: one fleet cell per
// (app, zone-id regime), each calibrated on private emulated machines and
// churned through the real lz_alloc/lz_free paths, then simulated across
// its operating points in virtual time.
func printServe(cfg serve.Config) error {
	cfg.Platform = workload.Table5Platforms()[0].Plat // Carmel Host
	cells, err := serve.Sweep(fleet, cfg, serve.DefaultSpecs())
	if err != nil {
		return err
	}
	serveCells = append(serveCells, cells...)
	if jsonOut {
		for _, c := range cells {
			if err := emitJSON(map[string]any{
				"kind": "serve-cell", "machine": c.Machine, "app": c.App,
				"regime": c.Regime, "live_zones": c.LiveZones,
				"base_cycles": c.BaseCycles, "churn_pair_cycles": c.PairCycles,
				"capacity_rps": c.CapacityRPS, "slo_us": c.SLOMicros,
				"churn_pairs": c.Churn.Pairs, "zone_id_high_water": c.Churn.ZoneIDHighWater,
				"ttbrtab_pages": c.Churn.TTBRTabPages, "asid_recycles": c.Churn.ASIDRecycles,
				"asid_rolls": c.Churn.ASIDRolls,
			}); err != nil {
				return err
			}
			for _, r := range c.Rows {
				if err := emitJSON(map[string]any{
					"kind": "serve", "machine": c.Machine, "app": r.App,
					"regime": r.Regime, "arrival": string(r.Arrival), "policy": r.Policy,
					"offered_rps": r.OfferedRPS, "utilization": r.Utilization,
					"duration_s": r.DurationS, "arrivals": r.Arrivals,
					"served": r.Served, "shed": r.Shed, "queue_max": r.QueueMax,
					"p50_us": r.P50us, "p99_us": r.P99us, "p999_us": r.P999us,
					"slo_us": r.SLOMicros, "goodput_rps": r.GoodputRPS,
					"slo_attain_pct": r.SLOAttainPct,
				}); err != nil {
					return err
				}
			}
		}
		return nil
	}
	fmt.Printf("Service harness: %s arrivals, %gs per operating point\n", cfg.Arrival, cfg.DurationS)
	for _, c := range cells {
		fmt.Printf("  %s %s lzid-%d: %d live zones, %.0f base + %.0f churn-pair cycles, capacity %.0f rps, SLO %.0fus\n",
			c.Machine, c.App, c.Regime, c.LiveZones, c.BaseCycles, c.PairCycles, c.CapacityRPS, c.SLOMicros)
		fmt.Printf("    churn: %d pairs, id high-water %d, TTBRTab %d page(s), %d ASID recycles, %d rolls\n",
			c.Churn.Pairs, c.Churn.ZoneIDHighWater, c.Churn.TTBRTabPages, c.Churn.ASIDRecycles, c.Churn.ASIDRolls)
		w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintln(w, "    policy\trps\tutil\tserved\tshed\tqmax\tp50us\tp99us\tp999us\tgoodput\tslo%")
		for _, r := range c.Rows {
			fmt.Fprintf(w, "    %s\t%.0f\t%.2f\t%d\t%d\t%d\t%d\t%d\t%d\t%.0f\t%.1f\n",
				r.Policy, r.OfferedRPS, r.Utilization, r.Served, r.Shed, r.QueueMax,
				r.P50us, r.P99us, r.P999us, r.GoodputRPS, r.SLOAttainPct)
		}
		w.Flush()
	}
	fmt.Println()
	return nil
}

// writeServeOut writes the collected serve cells (calibration, churn
// pressure, every operating-point row) as indented JSON — the committed
// BENCH_PR7.json trajectory is one such file.
func writeServeOut(path string) error {
	b, err := json.MarshalIndent(serveCells, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// printBackends measures the cross-backend comparison matrix on the Table 5
// platforms: domain-switch cycles at every Table 5 domain count, the
// per-page lz_mprotect cost, and the lz-syscall roundtrip, per backend.
func printBackends(iters int) error {
	backends, err := workload.ResolveBackends(backendSel)
	if err != nil {
		return err
	}
	if !jsonOut {
		fmt.Printf("Backend comparison: cycles per operation (%d switch iterations)\n", iters)
	}
	for _, row := range workload.Table5Platforms() {
		m, err := fleet.BackendSweep(row.Plat, backends, iters)
		if err != nil {
			return err
		}
		backendMatrices = append(backendMatrices, m)
		if jsonOut {
			for _, c := range m.Cells {
				obj := map[string]any{
					"kind": "backend", "platform": m.Machine,
					"backend": c.Backend, "metric": c.Metric, "cycles": c.Cycles,
				}
				if c.Domains > 0 {
					obj["domains"] = c.Domains
				}
				if err := emitJSON(obj); err != nil {
					return err
				}
			}
			continue
		}
		fmt.Printf("  %s:\n", m.Machine)
		w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		fmt.Fprint(w, "    backend")
		for _, d := range workload.Table5Domains {
			fmt.Fprintf(w, "\tswitch d=%d", d)
		}
		fmt.Fprintln(w, "\tmprotect/page\tsyscall")
		for _, b := range backends {
			fmt.Fprintf(w, "    %s", b)
			for _, c := range m.Cells {
				if c.Backend == b && c.Metric == "switch" {
					fmt.Fprintf(w, "\t%.1f", c.Cycles)
				}
			}
			for _, metric := range []string{"mprotect-page", "syscall"} {
				for _, c := range m.Cells {
					if c.Backend == b && c.Metric == metric {
						fmt.Fprintf(w, "\t%.1f", c.Cycles)
					}
				}
			}
			fmt.Fprintln(w)
		}
		w.Flush()
	}
	if !jsonOut {
		fmt.Println()
	}
	return nil
}

// printPlanted runs the static half of the attack battery: every planted
// violation must be reported by its designated checker at the planted VA
// before any dynamic trap would see it.
func printPlanted() error {
	if !jsonOut {
		fmt.Println("  static detection (planted attacks, caught before any dynamic trap):")
	}
	for _, plat := range workload.AllPlatforms() {
		results, err := fleet.PlantedSweep(plat)
		if err != nil {
			return err
		}
		if jsonOut {
			for _, r := range results {
				if err := emitJSON(map[string]any{
					"kind": "planted", "platform": plat.String(), "attack": r.Name,
					"checker": r.Checker, "va": fmt.Sprintf("%#x", r.VA), "caught": r.Caught,
				}); err != nil {
					return err
				}
			}
			continue
		}
		fmt.Printf("    %s:\n", plat)
		for _, r := range results {
			fmt.Printf("      %-26s caught by %s at %#x\n", r.Name, r.Checker, r.VA)
		}
	}
	return nil
}

func printAblations() error {
	if jsonOut {
		for _, prof := range arm64.Profiles() {
			results, err := fleet.AblationSweep(prof)
			if err != nil {
				return err
			}
			for _, r := range results {
				if err := emitJSON(map[string]any{
					"kind": "ablation", "profile": prof.Name, "optimization": r.Name,
					"metric": r.Metric, "optimized": r.Optimized, "ablated": r.Ablated,
					"slowdown": r.Factor(),
				}); err != nil {
					return err
				}
			}
		}
		return nil
	}
	fmt.Println("Ablations of the 5.2 trap optimizations (cycles on the protected path)")
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "  profile\toptimization\tmetric\toptimized\tablated\tslowdown")
	for _, prof := range arm64.Profiles() {
		results, err := fleet.AblationSweep(prof)
		if err != nil {
			return err
		}
		for _, r := range results {
			fmt.Fprintf(w, "  %s\t%s\t%s\t%.0f\t%.0f\t%.2fx\n",
				prof.Name, r.Name, r.Metric, r.Optimized, r.Ablated, r.Factor())
		}
	}
	w.Flush()
	fmt.Println()
	return nil
}

// csvOut, when set, receives one CSV file per figure/platform.
var csvOut string

func writeFigureCSV(figure int, plat workload.Platform, series []workload.FigureSeries) error {
	if csvOut == "" {
		return nil
	}
	name := fmt.Sprintf("figure%d_%s.csv", figure, strings.ReplaceAll(plat.String(), " ", "_"))
	f, err := os.Create(csvOut + "/" + name)
	if err != nil {
		return err
	}
	defer f.Close()
	fmt.Fprint(f, "x")
	for _, s := range series {
		fmt.Fprintf(f, ",%s", s.Variant)
	}
	fmt.Fprintln(f)
	for i, pt := range series[0].Points {
		fmt.Fprintf(f, "%d", pt.X)
		for _, s := range series {
			fmt.Fprintf(f, ",%.1f", s.Points[i].Tput)
		}
		fmt.Fprintln(f)
	}
	return nil
}

func writeNVMCSV(plat workload.Platform, series []workload.NVMSeries) error {
	if csvOut == "" {
		return nil
	}
	name := fmt.Sprintf("figure5_%s.csv", strings.ReplaceAll(plat.String(), " ", "_"))
	f, err := os.Create(csvOut + "/" + name)
	if err != nil {
		return err
	}
	defer f.Close()
	fmt.Fprint(f, "domains")
	for _, s := range series {
		fmt.Fprintf(f, ",%s", s.Variant)
	}
	fmt.Fprintln(f)
	for i, d := range workload.NVMDomainCounts {
		fmt.Fprintf(f, "%d", d)
		for _, s := range series {
			fmt.Fprintf(f, ",%.2f", s.OverheadPct[i])
		}
		fmt.Fprintln(f)
	}
	return nil
}
