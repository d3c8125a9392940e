package main

import (
	"fmt"
	"regexp"
	"sort"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	Name string
	Unit string
}

// endToEnd are the metrics a user of the simulator sees; every workload
// reports all of them on an untraced run (--trace 0). Each is nonzero on
// every workload, so a relative bound against the parent's median is always
// defined.
var endToEnd = []metricDef{
	{"setup_s", "s"},       // preparing one pass of the workload (median over passes)
	{"wall_s", "s"},        // host seconds of one pass's timed phase (median over passes)
	{"op_p50_us", "us"},    // median latency of one operation
	{"op_tail_us", "us"},   // highest percentile with >= 10 samples beyond it
	{"alloc_mb", "MiB"},    // Go heap bytes allocated in one pass's timed phase
	{"rss_peak_mb", "MiB"}, // peak resident memory during one pass (median over passes)
}

// perLayer are the metrics of single layers, reported on a traced run
// (--trace 1). A layer a workload never calls reads 0 there (see README.md).
var perLayer = []metricDef{
	{"fail_frac", "ratio"},
	{"op_samples", "count"},
	{"emu_mips", "Minsn/s"},
	{"workload.prepare_us", "us"},
	{"workload.boot_us", "us"},
	{"core.enter_us", "us"},
	{"core.alloc_us", "us"},
	{"core.prot_us", "us"},
	{"core.free_us", "us"},
	{"core.frames_per_alloc", "count"},
	{"cpu.run_s", "s"},
	{"cpu.insns", "count"},
	{"cpu.decode_hit_rate", "ratio"},
	{"cpu.code_stale", "count"},
	{"cpu.mtlb_hit_rate", "ratio"},
	{"cpu.trace_insn_share", "ratio"},
	{"cpu.trace_stitched", "count"},
	{"cpu.trace_side_exits", "count"},
	{"cpu.trace_invalidated", "count"},
	{"cpu.trace_completion", "ratio"},
	{"mem.tlb_hit_rate", "ratio"},
	{"mem.frames", "count"},
	{"mem.code_invalidations", "count"},
	{"kernel.syscalls", "count"},
	{"kernel.page_faults", "count"},
	{"kernel.asid_recycles", "count"},
	{"kernel.asid_rolls", "count"},
	{"verify.cell_ms", "ms"},
	{"verify.invariant_runs", "count"},
	{"eval.table4_s", "s"},
	{"eval.table5_s", "s"},
	{"eval.figure3_s", "s"},
	{"eval.figure4_s", "s"},
	{"eval.figure5_s", "s"},
	{"eval.memory_s", "s"},
	{"eval.pentest_s", "s"},
	{"eval.ablations_s", "s"},
	{"go.gc_cycles", "count"},
	{"go.mallocs", "count"},
	{"self.bench_s", "s"},
	{"self.workload_s", "s"},
	{"self.kernel_s", "s"},
	{"self.core_s", "s"},
	{"self.cpu_s", "s"},
	{"self.verify_s", "s"},
	{"self.replay_s", "s"},
	{"trace.overhead_pct", "%"},
}

// spanLayers are the layers a span can be attributed to; each has a
// self.<layer>_s metric above.
var spanLayers = []string{"bench", "workload", "kernel", "core", "cpu", "verify", "replay"}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// checkMetricDefs rejects a malformed or duplicated metric name.
func checkMetricDefs(defs ...[]metricDef) error {
	seen := map[string]bool{}
	for _, list := range defs {
		for _, d := range list {
			if !metricName.MatchString(d.Name) {
				return fmt.Errorf("metric name %q does not match %s", d.Name, metricName)
			}
			if seen[d.Name] {
				return fmt.Errorf("metric %q defined twice", d.Name)
			}
			seen[d.Name] = true
		}
	}
	return nil
}

// median returns the middle of xs (the mean of the two middle values for
// an even count), or 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailBeyond is how many samples must lie above the reported tail.
const tailBeyond = 10

// tail returns the highest percentile of xs that still has at least
// tailBeyond samples beyond it: the value at sorted index n-1-tailBeyond,
// and that percentile. ok is false when there are too few samples.
func tail(xs []float64) (v, pct float64, ok bool) {
	n := len(xs)
	if n <= tailBeyond {
		return 0, 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := n - 1 - tailBeyond
	return s[i], 100 * float64(i+1) / float64(n), true
}

// ratio returns num/den, or 0 when nothing was counted.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
