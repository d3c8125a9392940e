// Command perfbench is the simulator's host-performance benchmark. It runs
// one workload per process and prints, as the last line of standard output,
// one JSON object with the run's correctness, operation counts and metrics:
//
//	bash perfbench/run.sh --workload switch --seed 1 --seconds 10 --trace 0
//
// Workloads (see README.md for what each stresses and which metric each
// layer should move):
//
//	switch  the Table 5 matrix at a long iteration count, one cell at a time
//	churn   lz_alloc/lz_prot/lz_free triples on one machine, no guest code
//	eval    the suites of lzbench -all, through their Fleet sweeps at width 2
//	audit   the lzverify clean sweep over all four platforms
//
// A run is a fixed number of passes, each one unit of the workload's work;
// --seconds sets that number (calibrated so a pass loop takes about that
// long on a 2-vCPU host), so two commits measured with the same --seconds
// do identical work. Emulated results are checked on every operation; a
// failed check, an error or an aborted pass counts as a failed operation.
// --trace 0 reports the end-to-end metrics; --trace 1 alternates traced and
// untraced passes and reports the per-layer metrics, the layers' self time
// from the spans, and the tracing overhead.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"
)

// workloadDef is one benchmark workload.
type workloadDef struct {
	name string
	why  string
	// passesPerSecond converts --seconds into the run's pass count.
	passesPerSecond float64
	// start prepares what every pass shares, outside the measurement
	// (reference results), and returns the pass.
	start func(b *bench) (pass func() error, err error)
}

var workloads = []workloadDef{
	{
		name:            "switch",
		why:             "guest execution does almost all the work (decode cache, micro-TLBs, traces); lz_alloc runs only at program start",
		passesPerSecond: 0.65,
		start:           startSwitch,
	},
	{
		name:            "churn",
		why:             "module syscalls, page-table writes, TLB invalidation and ASID recycling do the work, with no guest code",
		passesPerSecond: 3.3,
		start:           startChurn,
	},
	{
		name:            "eval",
		why:             "what a user reproducing the paper waits for: hundreds of short cells each boot a machine, so traces stay cold",
		passesPerSecond: 1.35,
		start:           startEval,
	},
	{
		name:            "audit",
		why:             "the lzverify clean sweep with the invariant registry re-run at every lz_alloc/lz_prot/lz_free chokepoint",
		passesPerSecond: 0.65,
		start:           startAudit,
	},
}

// minPasses keeps enough passes for a median, and for the traced run to
// alternate traced and untraced passes.
const minPasses = 3

// runLimit bounds the whole process: passes that would start after it are
// not run and count as failed operations.
const runLimit = 150 * time.Second

// goCounters are the Go runtime's cumulative allocation counters.
type goCounters struct{ bytes, objects, gcs uint64 }

var goSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/cycles/total:gc-cycles"},
}

func readGo() goCounters {
	metrics.Read(goSamples)
	return goCounters{goSamples[0].Value.Uint64(), goSamples[1].Value.Uint64(), goSamples[2].Value.Uint64()}
}

func (g goCounters) sub(o goCounters) goCounters {
	return goCounters{g.bytes - o.bytes, g.objects - o.objects, g.gcs - o.gcs}
}

func (g goCounters) add(o goCounters) goCounters {
	return goCounters{g.bytes + o.bytes, g.objects + o.objects, g.gcs + o.gcs}
}

// bench accumulates one run's measurements.
type bench struct {
	seed    int64
	tr      *tracer // every span of a traced run (--trace 1); nil otherwise
	tracing bool    // the current pass records spans
	last    bool    // the current pass is the run's last
	start   time.Time

	attempted, failed int
	firstErr          error

	ops     []float64            // operation latencies, us
	tails   []float64            // tails of the windows of large passes
	samples map[string][]float64 // per-layer samples; each metric is their median

	// Current pass.
	setup, wall time.Duration
	goc         goCounters
	memory      time.Duration // eval: the figures' memory-overhead calls

	rss []float64 // peak resident memory of each pass, MiB

	setups, walls, allocMB []float64
	tracedWall, plainWall  []float64
}

func newBench(seed int64, traced bool) *bench {
	b := &bench{seed: seed, samples: map[string][]float64{}, start: time.Now()}
	if traced {
		b.tr = newTracer()
	}
	return b
}

// call runs fn as one call into layer, under a span when the pass is traced.
func (b *bench) call(layer, name string, fn func() error) (time.Duration, error) {
	id := -1
	if b.tracing {
		id = b.tr.begin(layer, name)
	}
	t0 := time.Now()
	err := fn()
	d := time.Since(t0)
	if id >= 0 {
		b.tr.end(id)
	}
	return d, err
}

// setupCall is a call that prepares the pass; its time joins setup_s.
func (b *bench) setupCall(layer, name string, fn func() error) (time.Duration, error) {
	d, err := b.call(layer, name, fn)
	b.setup += d
	return d, err
}

// timed runs fn as one operation of the pass's timed phase: its latency
// joins the operation samples, its time and Go allocations the pass's.
// Checking the result is the caller's job, outside the timing.
func (b *bench) timed(fn func() error) error {
	id := -1
	if b.tracing {
		b.tr.nextOp()
		id = b.tr.begin("bench", "op")
	}
	g0 := readGo()
	t0 := time.Now()
	err := fn()
	d := time.Since(t0)
	g1 := readGo()
	if id >= 0 {
		b.tr.end(id)
	}
	b.wall += d
	b.goc = b.goc.add(g1.sub(g0))
	b.ops = append(b.ops, us(d))
	return err
}

// attempt records one operation's outcome.
func (b *bench) attempt(err error) {
	b.attempted++
	if err != nil {
		b.failed++
		if b.firstErr == nil {
			b.firstErr = err
		}
	}
}

func (b *bench) sample(name string, v float64) { b.samples[name] = append(b.samples[name], v) }

func us(d time.Duration) float64 { return float64(d) / 1e3 }

// runPasses runs the workload's passes.
func (b *bench) runPasses(w workloadDef, passes int) error {
	pass, err := w.start(b)
	if err != nil {
		return err
	}
	perPass := 0
	for i := 0; i < passes; i++ {
		if time.Since(b.start) > runLimit {
			n := (passes - i) * max(perPass, 1)
			b.attempted += n
			b.failed += n
			if b.firstErr == nil {
				b.firstErr = fmt.Errorf("run limit %v reached with %d of %d passes left", runLimit, passes-i, passes)
			}
			break
		}
		b.tracing = b.tr != nil && i%2 == 1
		b.last = i == passes-1
		b.setup, b.wall, b.goc = 0, 0, goCounters{}
		ops0 := len(b.ops)
		if err := resetPeakRSS(); err != nil {
			return err
		}
		before := b.attempted
		var passID int
		if b.tracing {
			passID = b.tr.begin("bench", "pass")
		}
		if err := pass(); err != nil {
			b.attempt(err)
		}
		if b.tracing {
			b.tr.end(passID)
			self := selfTimes(b.tr.spans, passID)
			for _, l := range spanLayers {
				b.sample("self."+l+"_s", self[l])
			}
			b.tracedWall = append(b.tracedWall, b.wall.Seconds())
		} else {
			b.plainWall = append(b.plainWall, b.wall.Seconds())
		}
		if i == 0 {
			perPass = b.attempted - before
		}
		b.tails = append(b.tails, windowTails(b.ops[ops0:])...)
		rss, err := peakRSSMB()
		if err != nil {
			return err
		}
		b.rss = append(b.rss, rss)
		b.setups = append(b.setups, b.setup.Seconds())
		b.walls = append(b.walls, b.wall.Seconds())
		b.allocMB = append(b.allocMB, float64(b.goc.bytes)/(1<<20))
		b.sample("go.gc_cycles", float64(b.goc.gcs))
		b.sample("go.mallocs", float64(b.goc.objects))
	}
	b.tracing = false
	return nil
}

// tailWindow is the operation count over which one tail is taken. A
// 2-vCPU VM is descheduled for milliseconds at a time, so over thousands of
// operations the tail would only count those stalls. A pass of at least
// this many operations therefore splits into consecutive windows of this
// many, and the run reports the median of the windows' tails (their 96th
// percentile); runs of smaller passes take the tail over all of their
// operations.
const tailWindow = 250

// windowTails returns the tails of the consecutive full windows of a
// pass's operations.
func windowTails(ops []float64) []float64 {
	var tails []float64
	for i := 0; i+tailWindow <= len(ops); i += tailWindow {
		v, _, _ := tail(ops[i : i+tailWindow])
		tails = append(tails, v)
	}
	return tails
}

// opTail returns the reported op_tail_us and the sample count it is taken
// over.
func (b *bench) opTail() (float64, int) {
	if len(b.tails) > 0 {
		return median(b.tails), tailWindow
	}
	v, _, _ := tail(b.ops)
	return v, len(b.ops)
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// report assembles the result line: end-to-end metrics, or the per-layer
// ones on a traced run.
func (b *bench) report() result {
	vals := map[string]float64{}
	if b.tr == nil {
		vals["setup_s"] = median(b.setups)
		vals["wall_s"] = median(b.walls)
		vals["op_p50_us"] = median(b.ops)
		vals["op_tail_us"], _ = b.opTail()
		vals["alloc_mb"] = median(b.allocMB)
		vals["rss_peak_mb"] = median(b.rss)
	} else {
		for name, xs := range b.samples {
			vals[name] = median(xs)
		}
		vals["fail_frac"] = ratio(float64(b.failed), float64(b.attempted))
		_, n := b.opTail()
		vals["op_samples"] = float64(n)
		vals["trace.overhead_pct"] = 100 * (ratio(median(b.tracedWall), median(b.plainWall)) - 1)
	}
	defs := endToEnd
	if b.tr != nil {
		defs = perLayer
	}
	out := result{Attempted: b.attempted, Failed: b.failed, Metrics: map[string]metricOut{}}
	out.Correct = b.failed == 0 && b.attempted > 0
	for _, d := range defs {
		v := vals[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out.Metrics[d.Name] = metricOut{Value: v, Unit: d.Unit}
	}
	return out
}

// resetPeakRSS restarts the kernel's peak resident set count (VmHWM), so
// each pass reads its own peak.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads the process's peak resident set (VmHWM) from procfs.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, errors.New("VmHWM missing from /proc/self/status")
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// passCount converts --seconds into the run's fixed pass count.
func passCount(w workloadDef, seconds int) int {
	return max(minPasses, int(math.Round(w.passesPerSecond*float64(seconds))))
}

// outDir holds build products and span files.
func outDir() string {
	if d := os.Getenv("CARGO_TARGET_DIR"); d != "" {
		return d
	}
	return ".bench_build"
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: switch, churn, eval or audit")
		seed    = flag.Int64("seed", 1, "seed for the switch domain sequence and the churn operation order (eval and audit keep the paper's fixed seeds)")
		seconds = flag.Int("seconds", 10, "run length: sets the fixed number of passes, about this many seconds on a 2-vCPU host")
		traceF  = flag.Int("trace", 0, "1 reports per-layer metrics from a run alternating traced and untraced passes")
	)
	flag.Parse()
	w, ok := findWorkload(*name)
	if !ok || *seconds < 1 || *traceF < 0 || *traceF > 1 || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "perfbench: usage: --workload switch|churn|eval|audit --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	if err := checkMetricDefs(endToEnd, perLayer); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	b := newBench(*seed, *traceF == 1)
	passes := passCount(w, *seconds)
	if err := b.runPasses(w, passes); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	if b.firstErr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %d of %d operations failed; first: %v\n", w.name, b.failed, b.attempted, b.firstErr)
	}
	if b.tr != nil {
		file := fmt.Sprintf("%s-seed%d.json", w.name, *seed)
		if err := b.tr.write(filepath.Join(outDir(), "spans"), file); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
			os.Exit(1)
		}
	}
	line, err := json.Marshal(b.report())
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
