package serve

import (
	"encoding/json"
	"math"
	"testing"

	"lightzone/internal/arm64"
	"lightzone/internal/workload"
)

func carmel() workload.Platform {
	return workload.Platform{Prof: arm64.ProfileCarmel()}
}

// toySpec is a cheap service for harness-level tests: a small resident set
// and a light request so the calibration machines boot and measure fast.
func toySpec(regime int) Spec {
	return Spec{
		App: workload.ServeApp{
			Name: "toy",
			Params: workload.AppParams{
				Name:             "toy",
				WorkCycles:       map[string]float64{"Carmel": 50_000, "CortexA55": 60_000},
				SyscallsPerReq:   1,
				GatePassesPerReq: 2,
				S2MissesPerReq:   map[string]float64{"Carmel": 1, "CortexA55": 1},
			},
			ServeZones:      8,
			ZoneChurnPerReq: 0.05,
		},
		Regime: regime,
	}
}

func TestArrivalMeanAndDeterminism(t *testing.T) {
	const rate, n = 1000.0, 200_000
	for _, kind := range []Arrival{ArrivalPoisson, ArrivalBursty} {
		a := newArrival(kind, rate, 11)
		b := newArrival(kind, rate, 11)
		var sum float64
		for i := 0; i < n; i++ {
			ga, gb := a.next(), b.next()
			if ga != gb {
				t.Fatalf("%s: same seed diverged at gap %d: %v vs %v", kind, i, ga, gb)
			}
			sum += ga
		}
		mean := sum / n
		if math.Abs(mean*rate-1) > 0.05 {
			t.Errorf("%s: mean gap %v, want ~%v (rate preserved)", kind, mean, 1/rate)
		}
	}
}

func TestBurstyIsBurstier(t *testing.T) {
	variance := func(kind Arrival) float64 {
		p := newArrival(kind, 1000, 3)
		const n = 100_000
		var sum, sq float64
		for i := 0; i < n; i++ {
			g := p.next()
			sum += g
			sq += g * g
		}
		m := sum / n
		return sq/n - m*m
	}
	if vb, vp := variance(ArrivalBursty), variance(ArrivalPoisson); vb < 1.5*vp {
		t.Errorf("bursty gap variance %v not clearly above poisson %v", vb, vp)
	}
}

func TestHistQuantile(t *testing.T) {
	var h Hist
	for v := int64(1); v <= 100; v++ {
		h.Record(v)
	}
	if got := h.Quantile(1.0); got != 100 {
		t.Errorf("p100 = %d, want 100", got)
	}
	p50 := h.Quantile(0.50)
	if p50 < 50 || p50 > 55 {
		t.Errorf("p50 = %d, want within [50, 55] (log-linear bound)", p50)
	}
	if h.Quantile(0.99) < p50 {
		t.Error("quantiles not monotone")
	}
	// Wide range: the relative error of the bucket bound stays under 1/16.
	var w Hist
	w.Record(1_000_000)
	if q := w.Quantile(0.5); q < 1_000_000 || q > 1_000_000+1_000_000/histSub {
		t.Errorf("single-sample quantile %d strayed from 1e6", q)
	}
	if (&Hist{}).Quantile(0.99) != 0 {
		t.Error("empty histogram quantile not 0")
	}
}

// TestSimulateShedVsQueue pins the overload semantics at 1.5x capacity:
// shedding bounds both the queue and the tail, while queueing admits
// everything and lets latency grow without bound.
func TestSimulateShedVsQueue(t *testing.T) {
	cfg := Config{Arrival: ArrivalPoisson, DurationS: 2, QueueBound: 64, Seed: 5}.withDefaults()
	spec := toySpec(128)
	const base, pair, freq = 100_000.0, 10_000.0, 1e9
	svcUs := base / freq * 1e6 // ~100us
	rate := 1.5 * freq / base
	// SLO above the shed policy's latency ceiling (bound x service) but far
	// below where the unbounded queue drifts under sustained overload: the
	// policies then separate in goodput, not just in tail latency.
	slo := 120 * svcUs
	shedRow := simulate(cfg, spec, "shed", rate, base, pair, freq, slo, 99)
	queueRow := simulate(cfg, spec, "queue", rate, base, pair, freq, slo, 99)

	if shedRow.Shed == 0 {
		t.Error("1.5x overload shed nothing")
	}
	if shedRow.QueueMax > cfg.QueueBound {
		t.Errorf("shed policy queue depth %d exceeded bound %d", shedRow.QueueMax, cfg.QueueBound)
	}
	maxLat := int64(float64(cfg.QueueBound+1) * (base + pair) / freq * 1e6)
	if shedRow.P999us > maxLat {
		t.Errorf("shed p999 %dus above the bounded-queue ceiling %dus", shedRow.P999us, maxLat)
	}
	if queueRow.Shed != 0 {
		t.Errorf("queue policy shed %d requests", queueRow.Shed)
	}
	if queueRow.P99us <= 4*shedRow.P99us {
		t.Errorf("queue p99 %dus not clearly above shed p99 %dus under sustained overload", queueRow.P99us, shedRow.P99us)
	}
	if queueRow.GoodputRPS >= shedRow.GoodputRPS {
		t.Errorf("queueing goodput %.0f >= shedding goodput %.0f at 1.5x overload", queueRow.GoodputRPS, shedRow.GoodputRPS)
	}
}

// TestSweepDeterministicAcrossWidths is the serve analogue of the fleet
// identity guarantee: the same config produces byte-identical cells at any
// worker count.
func TestSweepDeterministicAcrossWidths(t *testing.T) {
	cfg := Config{Platform: carmel(), Arrival: ArrivalBursty, RPS: 2000, DurationS: 0.5, Seed: 9}
	specs := []Spec{toySpec(128), toySpec(1 << 16)}
	seq, err := Sweep(workload.NewFleet(1), cfg, specs)
	if err != nil {
		t.Fatal(err)
	}
	par, err := Sweep(workload.NewFleet(4), cfg, specs)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(seq)
	b, _ := json.Marshal(par)
	if string(a) != string(b) {
		t.Fatalf("sweep diverged across widths:\n  width 1: %s\n  width 4: %s", a, b)
	}
	// Sanity on the cells themselves: churn pressure stayed bounded on the
	// real machines behind the simulation.
	for _, c := range seq {
		if c.Churn.ZoneIDHighWater != c.LiveZones+2 {
			t.Errorf("lzid-%d: zone id high-water %d, want %d (resident set + base + churn slot)",
				c.Regime, c.Churn.ZoneIDHighWater, c.LiveZones+2)
		}
		if c.Churn.TTBRTabPages != 1 {
			t.Errorf("lzid-%d: TTBRTab grew to %d pages under churn", c.Regime, c.Churn.TTBRTabPages)
		}
		// The first pair's alloc predates any free, so recycles = pairs - 1.
		if c.Churn.ASIDRecycles < churnRealPairs-1 {
			t.Errorf("lzid-%d: only %d ASID recycles across %d churn pairs", c.Regime, c.Churn.ASIDRecycles, churnRealPairs)
		}
		if c.Churn.ASIDRolls != 0 {
			t.Errorf("lzid-%d: ASID generation rolled %d times", c.Regime, c.Churn.ASIDRolls)
		}
		if c.CapacityRPS <= 0 || c.SLOMicros <= 0 {
			t.Errorf("lzid-%d: degenerate calibration %+v", c.Regime, c)
		}
		for _, r := range c.Rows {
			if r.Served+r.Shed != r.Arrivals {
				t.Errorf("lzid-%d %s: served %d + shed %d != arrivals %d", c.Regime, r.Policy, r.Served, r.Shed, r.Arrivals)
			}
		}
	}
}

// TestRegimeCapsResidentSet pins the NR_LZID contrast: services larger than
// the 128-id regime get capped (and their gate pressure with them), while
// the 2^16 regime holds the full resident set.
func TestRegimeCapsResidentSet(t *testing.T) {
	for _, app := range workload.ServeApps() {
		small := Spec{App: app, Regime: 128}.LiveZones()
		big := Spec{App: app, Regime: 1 << 16}.LiveZones()
		if big != app.ServeZones {
			t.Errorf("%s: 2^16 regime holds %d zones, want the full %d", app.Name, big, app.ServeZones)
		}
		if small > 126 {
			t.Errorf("%s: 128 regime holds %d zones, want <= 126", app.Name, small)
		}
		if app.ServeZones <= 126 && small != app.ServeZones {
			t.Errorf("%s: 128 regime capped a %d-zone service that fits", app.Name, app.ServeZones)
		}
	}
	nginx := workload.ServeApps()[0]
	if (Spec{App: nginx, Regime: 128}).LiveZones() >= (Spec{App: nginx, Regime: 1 << 16}).LiveZones() {
		t.Error("nginx resident set shows no regime contrast")
	}
}

func TestChurnerBounded(t *testing.T) {
	ch, err := NewChurner(carmel(), 8, 128)
	if err != nil {
		t.Fatal(err)
	}
	if err := ch.Churn(300); err != nil {
		t.Fatal(err)
	}
	s := ch.Stats()
	if s.ZoneIDHighWater != 10 {
		t.Errorf("zone id high-water %d after 300 pairs over 8 resident zones, want 10", s.ZoneIDHighWater)
	}
	if s.TTBRTabPages != 1 {
		t.Errorf("TTBRTab pages %d, want 1", s.TTBRTabPages)
	}
	if s.ASIDRecycles < 299 { // first pair's alloc predates any free
		t.Errorf("ASID recycles %d, want >= 299", s.ASIDRecycles)
	}
	if s.ASIDRolls != 0 {
		t.Errorf("ASID rolls %d, want 0", s.ASIDRolls)
	}
}
