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
//	lzbench -all -pipeline audit # cross-check replays against static proofs
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
// The flags that choose what a run measures parse into one
// replay.RunConfig: the suites, the iteration budget, the backend scope,
// the serve settings. A journal stores that config and the emitted rows,
// and a replay runs the recorded config and diffs the rows. Every
// measurement cell boots a private machine, so -parallel N and -pipeline
// change only wall-clock time: the emitted rows (emulated cycle counts
// included) are byte-identical for every N and pipeline, and a journal
// replays at any -parallel width, on any pipeline.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"text/tabwriter"

	"lightzone/internal/arm64"
	"lightzone/internal/cpu"
	"lightzone/internal/replay"
	"lightzone/internal/serve"
	"lightzone/internal/workload"
)

func main() {
	var (
		cfg      = replay.RunConfig{Seed: workload.Table5Seed}
		table    = flag.Int("table", 0, "regenerate table 4 or 5")
		figure   = flag.Int("figure", 0, "regenerate figure 3, 4 or 5")
		pentest  = flag.Bool("pentest", false, "run the 7.2 penetration tests")
		ablation = flag.Bool("ablations", false, "measure the 5.2 optimization ablations")
		all      = flag.Bool("all", false, "run everything")
		csvDir   = flag.String("csv", "", "also write figure series as CSV files into this directory")
		jsonMode = flag.Bool("json", false, "emit one JSON object per table row / figure point instead of tables")
		cpuProf  = flag.String("cpuprofile", "", "write a host CPU profile to this file")
		memProf  = flag.String("memprofile", "", "write a host heap profile to this file")
		record   = flag.String("record", "", "record the run (its config and emitted rows) into a replay journal at this path; implies -json")
		replayP  = flag.String("replay", "", "replay a recorded journal: re-run its recorded config and fail unless every row is byte-identical; implies -json")
		chaosN   = flag.Int("chaos", 0, "run a fault-injection sweep of this many derived chaos cases; every case must converge to its recorded baseline or be flagged by a named verify checker")
		chaosSd  = flag.Int64("chaosseed", 1, "seed for deriving the -chaos plans")
		chaosOut = flag.String("chaosout", "", "write one replayable journal per failing chaos case into this directory")
		serveF   = flag.Bool("serve", false, "run the always-on service harness: open-loop load against the long-lived serve apps under both zone-id regimes, with latency percentiles and throughput-at-SLO; off by default and not part of -all")
		serveOut = flag.String("serveout", "", "with -serve: also write the full serve cells (calibration, churn pressure, rows) as JSON to this file")
	)
	flag.BoolVar(&cfg.Mem, "mem", false, "with -figure: also report the memory overheads")
	flag.IntVar(&cfg.Iters, "iters", 10000, "domain-switch iterations (table 5)")
	flag.BoolVar(&cfg.Invariants, "invariants", false, "run the static invariant verifier at every mutation chokepoint of the clean machines, plus the planted-attack battery with -pentest; off by default, and the default output is unchanged when off")
	flag.StringVar(&cfg.Backend, "backend", "", "measure the isolation-backend comparison matrix for this backend (or \"all\"): domain-switch, per-page lz_mprotect and lz-syscall cycles under lightzone, overlay and granule; off by default and not part of -all")
	flag.IntVar(&cfg.Parallel, "parallel", runtime.NumCPU(), "worker goroutines for the measurement sweeps (1 = fully sequential)")
	flag.StringVar(&cfg.Arrival, "arrival", "poisson", "with -serve: arrival process (poisson or bursty)")
	flag.Float64Var(&cfg.RPS, "rps", 0, "with -serve: offered load in requests/sec; 0 sweeps the utilization ladder against each cell's measured capacity")
	flag.Float64Var(&cfg.DurationS, "duration", serve.DefaultDurationS, "with -serve: virtual seconds of offered load per operating point")
	flag.Float64Var(&cfg.SLOMicros, "slo", 0, "with -serve: latency SLO in microseconds; 0 derives 4x each cell's mean service time")
	pipeline := cpu.PipelineFast
	flag.Func("pipeline", "execution pipeline of every machine: fast (decode cache, micro-TLB fastpaths, traces), reference (the Step interpreter, every host-side layer off) or audit (fast, with every cached-block and trace replay cross-checked against its static proof; summary on stderr, nonzero exit on any divergence); rows are byte-identical on every pipeline (default fast)",
		func(s string) (err error) {
			pipeline, err = cpu.ParsePipeline(s)
			return err
		})
	flag.Parse()
	if *serveOut != "" && !*serveF {
		fmt.Fprintln(os.Stderr, "lzbench: -serveout writes the serve cells, so it needs -serve")
		os.Exit(1)
	}
	cfg.Mem = cfg.Mem || *all
	cfg.Suites = suitesFromFlags(*table, *figure, *pentest, *ablation, *all,
		cfg.Invariants, cfg.Backend != "", *serveF)
	cpu.SetPipelineDefault(pipeline)
	b := &bench{fleet: workload.NewFleet(cfg.Parallel), json: *jsonMode, csvDir: *csvDir}
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
	err := b.dispatch(cfg, *record, *replayP, *chaosN, *chaosSd, *chaosOut)
	if *cpuProf != "" {
		pprof.StopCPUProfile()
	}
	if err == nil && *serveOut != "" {
		err = b.writeServeOut(*serveOut)
	}
	if err == nil && *memProf != "" {
		err = writeMemProfile(*memProf)
	}
	if err == nil && pipeline == cpu.PipelineAudited {
		err = reportProofAudit()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "lzbench:", err)
		os.Exit(1)
	}
}

// reportProofAudit summarizes the block-proof oracle on stderr and fails
// the run when any completed replay contradicted its static proof. The
// auditor is observation-only, so stdout stays byte-identical to a run on
// any other pipeline.
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

// bench is where a run's rows come from and go to: the fleet that shards
// every sweep's measurement cells (results are collected by cell index, so
// output ordering never depends on the width), the output format, and the
// rows and serve cells collected along the way.
type bench struct {
	fleet  *workload.Fleet
	json   bool   // line-delimited JSON instead of tables
	csvDir string // when set, receives one CSV file per figure/platform

	// capture, when non-nil, accumulates every emitted JSON row for the
	// journal (-record) or the byte-identity comparison (-replay).
	capture    []string
	suites     []string     // the suites the last run executed
	serveCells []serve.Cell // every serve cell run, for -serveout
}

// dispatch routes between the measurement path (optionally recorded), a
// journal replay, and a chaos sweep.
func (b *bench) dispatch(cfg replay.RunConfig, record, replayPath string,
	chaosN int, chaosSeed int64, chaosOut string) error {
	modes := 0
	for _, on := range []bool{record != "", replayPath != "", chaosN > 0} {
		if on {
			modes++
		}
	}
	switch {
	case modes > 1:
		return fmt.Errorf("-record, -replay and -chaos are mutually exclusive")
	case chaosN > 0:
		return b.runChaos(chaosN, chaosSeed, chaosOut)
	case replayPath != "":
		return b.runReplay(replayPath)
	case record != "":
		return b.runRecord(record, cfg)
	}
	return b.run(cfg)
}

// runRecord executes cfg with row capture on, then seals the config and the
// rows into a journal.
func (b *bench) runRecord(path string, cfg replay.RunConfig) error {
	if len(cfg.Suites) == 0 {
		return fmt.Errorf("-record needs at least one suite (e.g. -all)")
	}
	b.json = true
	b.capture = []string{}
	if err := b.run(cfg); err != nil {
		return err
	}
	// The serve settings are recorded only for runs that used them.
	if !slices.Contains(cfg.Suites, "serve") {
		cfg.Arrival, cfg.RPS, cfg.DurationS, cfg.SLOMicros = "", 0, 0, 0
	}
	j := &replay.Journal{Version: replay.Version, Kind: replay.KindBench, Config: cfg, Rows: b.capture}
	j.Seal()
	if err := j.Write(path); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "lzbench: recorded %d rows into %s\n", len(j.Rows), path)
	return nil
}

// runReplay re-runs a journal's recorded config and compares the emitted
// rows byte for byte. The current -parallel width and -pipeline are
// deliberately kept: a journal must replay identically on any.
func (b *bench) runReplay(path string) error {
	j, err := replay.ReadJournal(path)
	if err != nil {
		return err
	}
	if j.Kind != replay.KindBench {
		return fmt.Errorf("%s: journal kind %q; lzbench replays bench journals (use lzreplay for %q)", path, j.Kind, j.Kind)
	}
	if j.Config.Seed != workload.Table5Seed {
		return fmt.Errorf("%s: journal recorded workload seed %d, this build uses %d", path, j.Config.Seed, workload.Table5Seed)
	}
	b.json = true
	b.capture = []string{}
	if err := b.run(j.Config); err != nil {
		return err
	}
	diffs := replay.DiffRows(j.Rows, b.capture, 10)
	if len(diffs) > 0 {
		fmt.Fprintf(os.Stderr, "lzbench: replay DIVERGED from %s: %d of %d recorded rows differ (first %d shown)\n",
			path, countDiffs(j.Rows, b.capture), len(j.Rows), len(diffs))
		for _, d := range diffs {
			fmt.Fprintf(os.Stderr, "  row %d:\n    recorded: %s\n    replayed: %s\n", d.Index, d.A, d.B)
		}
		return fmt.Errorf("replay diverged")
	}
	fmt.Fprintf(os.Stderr, "lzbench: replay of %s byte-identical (%d rows)\n", path, len(b.capture))
	return nil
}

func countDiffs(a, b []string) int {
	return len(replay.DiffRows(a, b, max(len(a), len(b))+1))
}

// runChaos derives and runs the fault-injection sweep. Every case must land
// in its injection's expectation class; each failing case is journalled for
// standalone replay when -chaosout is set.
func (b *bench) runChaos(n int, seed int64, outDir string) error {
	results, err := replay.ChaosSweep(b.fleet, n, seed)
	if err != nil {
		return err
	}
	failed := 0
	for _, r := range results {
		if b.json {
			if err := b.emit(map[string]any{
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
	if !b.json {
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

// suitesFromFlags maps the selection flags onto the ordered suite list.
func suitesFromFlags(table, figure int, pentest, ablation, all, invariants, backends, serveOn bool) []string {
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
	if backends {
		s = append(s, "backends")
	}
	// Deliberately opt-in only: the serve harness is continuous-load
	// territory, not part of -all.
	if serveOn {
		s = append(s, "serve")
	}
	return s
}

// run executes cfg's suites in order. Every suite reads its settings from
// cfg alone, so a journal's recorded config reruns the recorded rows.
func (b *bench) run(cfg replay.RunConfig) error {
	if len(cfg.Suites) == 0 {
		flag.Usage()
		return nil
	}
	b.suites = cfg.Suites
	for _, name := range cfg.Suites {
		var err error
		switch name {
		case "table4":
			err = b.printTable4()
		case "table5":
			err = b.printTable5(cfg.Iters)
		case "figure3", "figure4", "figure5":
			err = b.printFigure(int(name[len(name)-1]-'0'), cfg.Mem)
		case "pentest":
			err = b.printPentest(cfg.Invariants)
		case "ablations":
			err = b.printAblations()
		case "invariants":
			err = b.printVerify()
		case "backends":
			// The comparison matrix shares table 5's iteration budget.
			err = b.printBackends(cfg.Backend, cfg.Iters)
		case "serve":
			var ar serve.Arrival
			if ar, err = serve.ParseArrival(cfg.Arrival); err == nil {
				err = b.printServe(serve.Config{Arrival: ar, RPS: cfg.RPS, DurationS: cfg.DurationS, SLOMicros: cfg.SLOMicros})
			}
		default:
			err = fmt.Errorf("unknown suite %q", name)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// emit writes one self-describing result object per line; kind names the
// table/figure so mixed -all output stays filterable with jq.
func (b *bench) emit(obj map[string]any) error {
	data, err := json.Marshal(obj)
	if err != nil {
		return err
	}
	if b.capture != nil {
		b.capture = append(b.capture, string(data))
	}
	_, err = fmt.Println(string(data))
	return err
}

func (b *bench) printTable4() error {
	perProf, err := b.fleet.Table4Sweep()
	if err != nil {
		return err
	}
	if b.json {
		for i, prof := range arm64.Profiles() {
			for _, r := range perProf[i] {
				if err := b.emit(map[string]any{
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

func (b *bench) printTable5(iters int) error {
	cells, err := b.fleet.Table5Sweep(iters)
	if err != nil {
		return err
	}
	if b.json {
		// Cells come back in the sweep's enumeration order, which is the
		// historical sequential emission order.
		for _, c := range cells {
			if err := b.emit(map[string]any{
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

func (b *bench) printFigure(f int, withMem bool) error {
	names := map[int]string{
		3: "Figure 3: Nginx HTTPS throughput (1 worker, 1KB file)",
		4: "Figure 4: MySQL sysbench OLTP read-write throughput",
		5: "Figure 5: NVM data-structure benchmark time overhead",
	}
	if !b.json {
		fmt.Println(names[f])
	}
	cells, err := b.fleet.FigureSweep(f)
	if err != nil {
		return err
	}
	for _, cell := range cells {
		plat := cell.Platform
		if !b.json {
			fmt.Printf("  %s:\n", plat)
		}
		switch f {
		case 3, 4:
			series := cell.Series
			if err := b.writeFigureCSV(f, plat, series); err != nil {
				return err
			}
			if b.json {
				for _, s := range series {
					for _, pt := range s.Points {
						if err := b.emit(map[string]any{
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
			if err := b.writeNVMCSV(plat, series); err != nil {
				return err
			}
			if b.json {
				for _, s := range series {
					for i, d := range workload.NVMDomainCounts {
						if err := b.emit(map[string]any{
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
		if b.json {
			return b.emit(map[string]any{
				"kind": "memory", "figure": f, "platform": plat.String(),
				"baseline_bytes": m.BaselineBytes, "frag_pct": m.FragPct,
				"pan_pt_pct": m.PANPTPct, "ttbr_pt_pct": m.TTBRPTPct,
			})
		}
		fmt.Printf("  memory: baseline %.1fMB, fragmentation/app overhead %.1f%%, page tables PAN %.1f%% / TTBR %.1f%%\n",
			float64(m.BaselineBytes)/(1<<20), m.FragPct, m.PANPTPct, m.TTBRPTPct)
	}
	if !b.json {
		fmt.Println()
	}
	return nil
}

// printPentest runs the dynamic attack battery, and with invariants the
// planted-attack battery that the static verifier must catch.
func (b *bench) printPentest(invariants bool) error {
	if !b.json {
		fmt.Println("Penetration tests (7.2): 128 protected domains")
	}
	for _, plat := range workload.AllPlatforms() {
		results, err := b.fleet.PentestSweep(plat)
		if err != nil {
			return err
		}
		if b.json {
			for _, r := range results {
				if err := b.emit(map[string]any{
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
		if err := b.printPlanted(); err != nil {
			return err
		}
	}
	if !b.json {
		fmt.Println()
	}
	return nil
}

// printVerify re-runs the clean Table 5 machines with the static invariant
// verifier attached to every mutation chokepoint.
func (b *bench) printVerify() error {
	if !b.json {
		fmt.Println("Static invariant verification (chokepoint-monitored clean machines)")
	}
	for _, plat := range workload.AllPlatforms() {
		results, err := b.fleet.VerifySweep(plat)
		if err != nil {
			return err
		}
		if b.json {
			for _, r := range results {
				if err := b.emit(map[string]any{
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
	if !b.json {
		fmt.Println()
	}
	return nil
}

// printServe runs the always-on service harness: one fleet cell per
// (app, zone-id regime), each calibrated on private emulated machines and
// churned through the real lz_alloc/lz_free paths, then simulated across
// its operating points in virtual time.
func (b *bench) printServe(cfg serve.Config) error {
	cfg.Platform = workload.Table5Platforms()[0].Plat // Carmel Host
	cells, err := serve.Sweep(b.fleet, cfg, serve.DefaultSpecs())
	if err != nil {
		return err
	}
	b.serveCells = append(b.serveCells, cells...)
	if b.json {
		for _, c := range cells {
			if err := b.emit(map[string]any{
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
				if err := b.emit(map[string]any{
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
// BENCH_PR7.json trajectory is one such file. A run that collected no cell
// (a replayed journal without the serve suite) writes nothing and fails.
func (b *bench) writeServeOut(path string) error {
	if len(b.serveCells) == 0 {
		suites := "none"
		if len(b.suites) > 0 {
			suites = strings.Join(b.suites, ", ")
		}
		return fmt.Errorf("-serveout: no serve suite ran (suites: %s), so there are no serve cells to write", suites)
	}
	data, err := json.MarshalIndent(b.serveCells, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// printBackends measures the cross-backend comparison matrix on the Table 5
// platforms: domain-switch cycles at every Table 5 domain count, the
// per-page lz_mprotect cost, and the lz-syscall roundtrip, per backend.
// sel is a backend name or "all".
func (b *bench) printBackends(sel string, iters int) error {
	backends, err := workload.ResolveBackends(sel)
	if err != nil {
		return err
	}
	if !b.json {
		fmt.Printf("Backend comparison: cycles per operation (%d switch iterations)\n", iters)
	}
	for _, row := range workload.Table5Platforms() {
		m, err := b.fleet.BackendSweep(row.Plat, backends, iters)
		if err != nil {
			return err
		}
		if b.json {
			for _, c := range m.Cells {
				obj := map[string]any{
					"kind": "backend", "platform": m.Machine,
					"backend": c.Backend, "metric": c.Metric, "cycles": c.Cycles,
				}
				if c.Domains > 0 {
					obj["domains"] = c.Domains
				}
				if err := b.emit(obj); err != nil {
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
		for _, be := range backends {
			fmt.Fprintf(w, "    %s", be)
			for _, c := range m.Cells {
				if c.Backend == be && c.Metric == "switch" {
					fmt.Fprintf(w, "\t%.1f", c.Cycles)
				}
			}
			for _, metric := range []string{"mprotect-page", "syscall"} {
				for _, c := range m.Cells {
					if c.Backend == be && c.Metric == metric {
						fmt.Fprintf(w, "\t%.1f", c.Cycles)
					}
				}
			}
			fmt.Fprintln(w)
		}
		w.Flush()
	}
	if !b.json {
		fmt.Println()
	}
	return nil
}

// printPlanted runs the static half of the attack battery: every planted
// violation must be reported by its designated checker at the planted VA
// before any dynamic trap would see it.
func (b *bench) printPlanted() error {
	if !b.json {
		fmt.Println("  static detection (planted attacks, caught before any dynamic trap):")
	}
	for _, plat := range workload.AllPlatforms() {
		results, err := b.fleet.PlantedSweep(plat, "lightzone")
		if err != nil {
			return err
		}
		if b.json {
			for _, r := range results {
				if err := b.emit(map[string]any{
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

func (b *bench) printAblations() error {
	if b.json {
		for _, prof := range arm64.Profiles() {
			results, err := b.fleet.AblationSweep(prof)
			if err != nil {
				return err
			}
			for _, r := range results {
				if err := b.emit(map[string]any{
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
		results, err := b.fleet.AblationSweep(prof)
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

func (b *bench) writeFigureCSV(figure int, plat workload.Platform, series []workload.FigureSeries) error {
	if b.csvDir == "" {
		return nil
	}
	name := fmt.Sprintf("figure%d_%s.csv", figure, strings.ReplaceAll(plat.String(), " ", "_"))
	f, err := os.Create(b.csvDir + "/" + name)
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

func (b *bench) writeNVMCSV(plat workload.Platform, series []workload.NVMSeries) error {
	if b.csvDir == "" {
		return nil
	}
	name := fmt.Sprintf("figure5_%s.csv", strings.ReplaceAll(plat.String(), " ", "_"))
	f, err := os.Create(b.csvDir + "/" + name)
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
