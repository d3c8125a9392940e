package main

import (
	"encoding/json"
	"math/rand"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"

	"lightzone/internal/arm64"
	"lightzone/internal/workload"
)

func TestMetricNames(t *testing.T) {
	if err := checkMetricDefs(endToEnd, perLayer); err != nil {
		t.Fatal(err)
	}
	re := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !re.MatchString(d.Name) {
			t.Errorf("metric name %q does not match %s", d.Name, re)
		}
	}
	if err := checkMetricDefs([]metricDef{{"bad name", "s"}}); err == nil {
		t.Error("a name with a space was accepted")
	}
	if err := checkMetricDefs([]metricDef{{"a", "s"}, {"a", "s"}}); err == nil {
		t.Error("a duplicated name was accepted")
	}
	for _, l := range spanLayers {
		if !hasMetric(perLayer, "self."+l+"_s") {
			t.Errorf("span layer %q has no self-time metric", l)
		}
	}
}

func hasMetric(defs []metricDef, name string) bool {
	for _, d := range defs {
		if d.Name == name {
			return true
		}
	}
	return false
}

// TestBenchmarkJSON checks that BENCHMARK.json declares exactly the
// workloads and metrics the benchmark prints.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the benchmark %q: %q", i, doc.Workloads[i], w.name, w.why)
		}
	}
	for _, pair := range []struct{ got, want []metricDef }{{doc.EndToEnd, endToEnd}, {doc.PerLayer, perLayer}} {
		if len(pair.got) != len(pair.want) {
			t.Fatalf("BENCHMARK.json lists %d metrics, the benchmark %d", len(pair.got), len(pair.want))
		}
		for i := range pair.want {
			if pair.got[i] != pair.want[i] {
				t.Errorf("metric %d: BENCHMARK.json has %+v, the benchmark %+v", i, pair.got[i], pair.want[i])
			}
		}
	}
}

func TestTailIsHighestPercentileWithTenBeyond(t *testing.T) {
	if _, _, ok := tail(make([]float64, tailBeyond)); ok {
		t.Error("a tail was reported with only 10 samples")
	}
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{11, 12, 100, 999, 1000} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.Float64()
		}
		v, pct, ok := tail(xs)
		if !ok {
			t.Fatalf("n=%d: no tail", n)
		}
		beyond := 0
		for _, x := range xs {
			if x > v {
				beyond++
			}
		}
		if beyond != tailBeyond {
			t.Errorf("n=%d: %d samples beyond the tail, want exactly %d", n, beyond, tailBeyond)
		}
		// No higher sample still has tailBeyond samples beyond it.
		s := append([]float64(nil), xs...)
		sort.Float64s(s)
		if next := s[n-tailBeyond]; next <= v {
			t.Errorf("n=%d: next sample %v not above the tail %v", n, next, v)
		}
		if want := 100 * float64(n-tailBeyond) / float64(n); pct != want {
			t.Errorf("n=%d: percentile %v, want %v", n, pct, want)
		}
	}
	// 1..100: the 90th value has exactly 91..100 beyond it.
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i)
	}
	if v, pct, _ := tail(xs); v != 90 || pct != 90 {
		t.Errorf("tail of 1..100 = %v at p%v, want 90 at p90", v, pct)
	}
	// A pass of 600 operations gives two full windows of 250.
	ops := make([]float64, 600)
	for i := range ops {
		ops[i] = float64(i % tailWindow)
	}
	tails := windowTails(ops)
	if want := float64(tailWindow - 1 - tailBeyond); len(tails) != 2 || tails[0] != want || tails[1] != want {
		t.Errorf("window tails = %v, want two of %v", tails, want)
	}
	if len(windowTails(ops[:tailWindow-1])) != 0 {
		t.Error("a pass smaller than one window produced a window tail")
	}
}

func TestSelfTimesOnSyntheticTree(t *testing.T) {
	// pass [0,100] (bench)
	//   op [10,40] (cpu)
	//   op [50,90] (core)
	//     call [60,70] (kernel)
	// plus an earlier span outside the window that must be ignored.
	spans := []span{
		{Layer: "verify", Start: 0, End: 1_000_000_000, Parent: -1},
		{Layer: "bench", Start: 0, End: 100, Parent: -1},
		{Layer: "cpu", Start: 10, End: 40, Parent: 1},
		{Layer: "core", Start: 50, End: 90, Parent: 1},
		{Layer: "kernel", Start: 60, End: 70, Parent: 3},
	}
	got := selfTimes(spans, 1)
	want := map[string]float64{"bench": 30e-9, "cpu": 30e-9, "core": 30e-9, "kernel": 10e-9}
	if len(got) != len(want) {
		t.Fatalf("self times %v, want %v", got, want)
	}
	for l, w := range want {
		if d := got[l] - w; d > 1e-15 || d < -1e-15 {
			t.Errorf("self time of %s = %v, want %v", l, got[l], w)
		}
	}
}

func TestTracerNestsSpans(t *testing.T) {
	tr := newTracer()
	tr.nextOp()
	outer := tr.begin("bench", "op")
	inner := tr.begin("cpu", "cpu.run")
	tr.end(inner)
	tr.end(outer)
	if tr.spans[inner].Parent != outer || tr.spans[outer].Parent != -1 {
		t.Errorf("parents = %d, %d", tr.spans[inner].Parent, tr.spans[outer].Parent)
	}
	if tr.spans[inner].Op != 1 || tr.spans[inner].End < tr.spans[inner].Start {
		t.Errorf("inner span %+v", tr.spans[inner])
	}
}

func TestSwitchRejectsMoreThan256Domains(t *testing.T) {
	cfg := workload.DomainSwitchConfig{Variant: workload.VariantLZTTBR, Domains: maxSwitchDomains}
	if err := checkSwitchConfig(cfg); err != nil {
		t.Errorf("256 domains refused: %v", err)
	}
	for _, d := range []int{0, 257, 1024} {
		cfg.Domains = d
		if err := checkSwitchConfig(cfg); err == nil {
			t.Errorf("%d domains accepted", d)
		}
	}
	cells, err := switchCells(7, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells)%2 == 0 {
		t.Errorf("%d switch cells; an odd count keeps the median on one cell", len(cells))
	}
	for _, c := range cells {
		if c.cfg.Seed != 7 {
			t.Errorf("%s: seed %d, want the benchmark's seed", c.name, c.cfg.Seed)
		}
	}
}

func TestChurnOpsFollowTheSeed(t *testing.T) {
	a, b, c := churnOps(1, 400), churnOps(1, 400), churnOps(2, 400)
	moves := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("op %d differs for the same seed", i)
		}
		if a[i].move {
			moves++
		}
	}
	if moves != 100 {
		t.Errorf("%d move triples of 400, want 100", moves)
	}
	same := true
	for i := range a {
		same = same && a[i] == c[i]
	}
	if same {
		t.Error("seeds 1 and 2 gave the same operation order")
	}
}

// runTwoPasses runs a workload for a traced run of two passes and returns
// its report.
func runTwoPasses(t *testing.T, w workloadDef) result {
	t.Helper()
	b := newBench(3, true)
	if err := b.runPasses(w, 2); err != nil {
		t.Fatal(err)
	}
	return b.report()
}

func TestPlantedWrongReferenceFails(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the eval and audit workloads")
	}
	w, _ := findWorkload("eval")
	if r := runTwoPasses(t, w); r.Failed != 0 || r.Metrics["fail_frac"].Value != 0 {
		t.Fatalf("eval with the true reference: %d of %d failed", r.Failed, r.Attempted)
	}

	plant := func(ref *string, old, new string) {
		t.Helper()
		if !strings.Contains(*ref, old) {
			t.Fatalf("reference lacks %q", old)
		}
		saved := *ref
		*ref = strings.Replace(saved, old, new, 1)
		t.Cleanup(func() { *ref = saved })
	}
	// One Table 5 cell's cycles, off by a little.
	plant(&evalReference, `"avg_cycles":455.`, `"avg_cycles":456.`)
	if r := runTwoPasses(t, w); r.Failed != 2 || r.Metrics["fail_frac"].Value <= 0 {
		t.Errorf("planted Table 5 value: %d of %d failed, fail_frac %v; want the table5 suite to fail in both passes",
			r.Failed, r.Attempted, r.Metrics["fail_frac"].Value)
	}

	// One cell's invariant-run count.
	plant(&auditReference, `"invariant_runs":98`, `"invariant_runs":97`)
	w, _ = findWorkload("audit")
	if r := runTwoPasses(t, w); r.Failed != 2 || r.Metrics["fail_frac"].Value <= 0 {
		t.Errorf("planted invariant count: %d of %d failed, fail_frac %v", r.Failed, r.Attempted, r.Metrics["fail_frac"].Value)
	}
}

func TestSwitchCellChecksTheReference(t *testing.T) {
	cfg := workload.DomainSwitchConfig{
		Platform: workload.Platform{Prof: arm64.ProfileCortexA55()},
		Variant:  workload.VariantLZTTBR, Domains: 8, Iters: 300, Seed: 5,
	}
	c := switchCell{name: "probe", cfg: cfg}
	ref, err := referenceRun(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b := newBench(5, false)
	var sc switchCounters
	if _, err := runSwitchCell(b, c, ref, nil, &sc); err != nil {
		t.Fatalf("fast pipeline differs from the reference interpreter: %v", err)
	}
	if sc.insns == 0 || sc.run <= 0 {
		t.Errorf("no guest execution counted: %+v", sc)
	}
	bad := ref
	bad.measured++
	if _, err := runSwitchCell(b, c, bad, nil, &sc); err == nil {
		t.Error("a planted wrong measured cycle count passed")
	}
	bad = ref
	bad.digest.Mem = "planted"
	if _, err := runSwitchCell(b, c, bad, nil, &sc); err == nil {
		t.Error("a planted wrong digest passed")
	}
}
