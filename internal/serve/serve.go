package serve

import (
	"fmt"

	"lightzone/internal/workload"
)

// Regimes are the two zone-id regimes the harness contrasts: the paper's
// NR_LZID=128 configuration and the full 2^16 id window. The regime is
// enforced on the live machine through the domain limit, and caps the
// service's resident set (the 128 regime keeps two ids of headroom: the
// base table and the churn slot).
var Regimes = []int{128, 1 << 16}

// Ladder is the utilization ladder swept when no absolute rate is given:
// fractions of the measured service capacity, deliberately crossing 1.0 so
// every run shows the overload knee.
var Ladder = []float64{0.5, 0.75, 0.9, 1.0, 1.1}

// Policies are the two overload policies simulated at every operating
// point: shed drops arrivals that find the bounded admission queue full;
// queue admits everything and lets latency absorb the overload.
var Policies = []string{"shed", "queue"}

// Harness defaults.
const (
	DefaultQueueBound = 256
	DefaultDurationS  = 5.0
	DefaultSeed       = 7

	// sloFactor derives the default SLO: 4x the unloaded mean service time.
	sloFactor = 4.0
	// churnRealPairs is how many real alloc/prot/free pairs each cell
	// drives through its live machine (on top of the resident set) before
	// reading the pressure stats.
	churnRealPairs = 2000
	// regimeHeadroom is the id budget the 128 regime reserves beyond the
	// resident set: the base table plus the churn slot.
	regimeHeadroom = 2
)

// Config parameterizes one harness run. RPS 0 sweeps the utilization
// ladder; an absolute rate pins a single operating point per cell.
type Config struct {
	Platform   workload.Platform
	Arrival    Arrival
	RPS        float64
	DurationS  float64
	SLOMicros  float64
	QueueBound int
	Seed       int64
}

// withDefaults fills unset Config fields.
func (cfg Config) withDefaults() Config {
	if cfg.Arrival == "" {
		cfg.Arrival = ArrivalPoisson
	}
	if cfg.DurationS <= 0 {
		cfg.DurationS = DefaultDurationS
	}
	if cfg.QueueBound <= 0 {
		cfg.QueueBound = DefaultQueueBound
	}
	if cfg.Seed == 0 {
		cfg.Seed = DefaultSeed
	}
	return cfg
}

// Spec names one harness cell: a service under a zone-id regime.
type Spec struct {
	App    workload.ServeApp
	Regime int
}

// DefaultSpecs enumerates the full matrix: every serve app under every
// regime, app-major (the emission order of every sweep).
func DefaultSpecs() []Spec {
	var specs []Spec
	for _, app := range workload.ServeApps() {
		for _, r := range Regimes {
			specs = append(specs, Spec{App: app, Regime: r})
		}
	}
	return specs
}

// LiveZones is the regime-capped resident set of a spec.
func (s Spec) LiveZones() int {
	if n := s.Regime - regimeHeadroom; s.App.ServeZones > n {
		return n
	}
	return s.App.ServeZones
}

// Cell is one measured-and-simulated harness cell: the calibration the
// real machine produced, the churn pressure it sustained, and the operating
// points simulated on top.
type Cell struct {
	Machine     string     `json:"machine"`
	App         string     `json:"app"`
	Regime      int        `json:"regime"`
	LiveZones   int        `json:"live_zones"`
	BaseCycles  float64    `json:"base_cycles"`
	PairCycles  float64    `json:"churn_pair_cycles"`
	CapacityRPS float64    `json:"capacity_rps"`
	SLOMicros   float64    `json:"slo_us"`
	Churn       ChurnStats `json:"churn"`
	Rows        []Row      `json:"rows"`
}

// Row is one operating point: a (rate, policy) pair under the cell's
// arrival process, with the latency percentiles and throughput-at-SLO the
// harness exists to report.
type Row struct {
	App          string  `json:"app"`
	Regime       int     `json:"regime"`
	Arrival      Arrival `json:"arrival"`
	Policy       string  `json:"policy"`
	OfferedRPS   float64 `json:"offered_rps"`
	Utilization  float64 `json:"utilization"`
	DurationS    float64 `json:"duration_s"`
	Arrivals     int64   `json:"arrivals"`
	Served       int64   `json:"served"`
	Shed         int64   `json:"shed"`
	QueueMax     int     `json:"queue_max"`
	P50us        int64   `json:"p50_us"`
	P99us        int64   `json:"p99_us"`
	P999us       int64   `json:"p999_us"`
	SLOMicros    float64 `json:"slo_us"`
	GoodputRPS   float64 `json:"goodput_rps"`
	SLOAttainPct float64 `json:"slo_attain_pct"`
}

// Sweep runs one cell per spec across the fleet. Cells boot private
// machines and seed private PRNGs from (cfg.Seed, cell index), so the
// returned slice is byte-identical at any fleet width.
func Sweep(f *workload.Fleet, cfg Config, specs []Spec) ([]Cell, error) {
	cfg = cfg.withDefaults()
	out := make([]Cell, len(specs))
	err := f.Run(len(specs), func(i int) error {
		c, err := runCell(cfg, specs[i], int64(i))
		if err != nil {
			return fmt.Errorf("%s/lzid-%d: %w", specs[i].App.Name, specs[i].Regime, err)
		}
		out[i] = c
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// runCell calibrates one cell on real emulated machines — request cost via
// the measured primitives, churn-pair cost via the guest probe, sustained
// churn pressure via the Go-API churner — then simulates its operating
// points in virtual time.
func runCell(cfg Config, spec Spec, idx int64) (Cell, error) {
	live := spec.LiveZones()
	params := spec.App.Params
	params.Domains = live

	pr, err := workload.MeasurePrimitives(cfg.Platform)
	if err != nil {
		return Cell{}, err
	}
	base, err := pr.CyclesPerRequest(params, workload.VariantLZTTBR)
	if err != nil {
		return Cell{}, err
	}
	pair, err := workload.MeasureChurnPair(cfg.Platform, live)
	if err != nil {
		return Cell{}, err
	}
	freq := float64(cfg.Platform.Prof.CPUFreqMHz) * 1e6
	meanCycles := base + spec.App.ZoneChurnPerReq*pair
	capacity := freq / meanCycles
	slo := cfg.SLOMicros
	if slo <= 0 {
		slo = sloFactor * meanCycles / freq * 1e6
	}

	ch, err := NewChurner(cfg.Platform, live, spec.Regime)
	if err != nil {
		return Cell{}, err
	}
	if err := ch.Churn(churnRealPairs); err != nil {
		return Cell{}, err
	}

	cell := Cell{
		Machine:     cfg.Platform.String(),
		App:         spec.App.Name,
		Regime:      spec.Regime,
		LiveZones:   live,
		BaseCycles:  base,
		PairCycles:  pair,
		CapacityRPS: capacity,
		SLOMicros:   slo,
		Churn:       ch.Stats(),
	}
	rates := []float64{cfg.RPS}
	if cfg.RPS <= 0 {
		rates = make([]float64, len(Ladder))
		for i, u := range Ladder {
			rates[i] = u * capacity
		}
	}
	for pi, rate := range rates {
		for poli, policy := range Policies {
			seed := cfg.Seed*1_000_003 + idx*10_000 + int64(pi)*10 + int64(poli)
			row := simulate(cfg, spec, policy, rate, base, pair, freq, slo, seed)
			row.Utilization = rate / capacity
			cell.Rows = append(cell.Rows, row)
		}
	}
	return cell, nil
}

// simulate runs one operating point as a single-server FIFO queue in
// virtual time: open-loop arrivals from the seeded process, per-request
// service times composed from the measured base and churn-pair cycle costs
// (zone churn distributed across requests with a deterministic carry
// accumulator), and the overload policy at the admission edge. Requests
// arriving within DurationS all complete (the queue drains past the
// horizon); latency is completion minus arrival.
func simulate(cfg Config, spec Spec, policy string, rate, base, pair, freq, sloUs float64, seed int64) Row {
	gen := newArrival(cfg.Arrival, rate, seed)
	var (
		t, lastDone, carry float64
		comp               []float64
		j                  int
		arrivals, shed     int64
		within             int64
		queueMax           int
		hist               Hist
	)
	for {
		t += gen.next()
		if t >= cfg.DurationS {
			break
		}
		arrivals++
		for j < len(comp) && comp[j] <= t {
			j++
		}
		depth := len(comp) - j // queued + in service
		if policy == "shed" && depth >= cfg.QueueBound {
			shed++
			continue
		}
		if depth+1 > queueMax {
			queueMax = depth + 1
		}
		carry += spec.App.ZoneChurnPerReq
		ops := int(carry)
		carry -= float64(ops)
		svc := (base + float64(ops)*pair) / freq
		start := t
		if lastDone > start {
			start = lastDone
		}
		done := start + svc
		latUs := int64((done - t) * 1e6)
		hist.Record(latUs)
		if float64(latUs) <= sloUs {
			within++
		}
		comp = append(comp, done)
		lastDone = done
	}
	served := int64(len(comp))
	row := Row{
		App:        spec.App.Name,
		Regime:     spec.Regime,
		Arrival:    cfg.Arrival,
		Policy:     policy,
		OfferedRPS: rate,
		DurationS:  cfg.DurationS,
		Arrivals:   arrivals,
		Served:     served,
		Shed:       shed,
		QueueMax:   queueMax,
		P50us:      hist.Quantile(0.50),
		P99us:      hist.Quantile(0.99),
		P999us:     hist.Quantile(0.999),
		SLOMicros:  sloUs,
		GoodputRPS: float64(within) / cfg.DurationS,
	}
	if served > 0 {
		row.SLOAttainPct = float64(within) / float64(served) * 100
	}
	return row
}
