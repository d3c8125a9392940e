package workload

import (
	"fmt"
	"math/rand"

	"lightzone/internal/arm64"
	"lightzone/internal/core"
	"lightzone/internal/kernel"
	"lightzone/internal/mem"
)

// Backend comparison matrix: the same isolation lifecycle measured under
// every registered backend. The lightzone cells reuse the Table 5 gate
// machinery verbatim; overlay and granule run their own switch loops built
// on the shared emitSwitchLoop skeleton, so the random domain sequence,
// warm-up discipline and marker placement are identical across backends —
// only the switch instruction sequence and the lz_prot cost model differ.

// BackendOrder lists the backends in presentation order (the default
// substrate first, then the two alternate models).
func BackendOrder() []string { return []string{"lightzone", "overlay", "granule"} }

// ResolveBackends maps a CLI backend selector onto the backends to run:
// "all" means every registered backend, anything else must name one.
func ResolveBackends(sel string) ([]string, error) {
	if sel == "all" {
		return BackendOrder(), nil
	}
	for _, b := range BackendOrder() {
		if b == sel {
			return []string{b}, nil
		}
	}
	return nil, fmt.Errorf("unknown backend %q (have %v, or \"all\")", sel, BackendOrder())
}

// backendProtPages is the region size (in pages) of the mprotect cell.
const backendProtPages = 32

// BackendSwitchConfig parameterizes one backend switch measurement.
type BackendSwitchConfig struct {
	Platform Platform
	Backend  string
	Domains  int
	Iters    int
	Seed     int64
}

// BackendCell is one cell of the cross-backend comparison matrix.
type BackendCell struct {
	Backend string  `json:"backend"`
	Metric  string  `json:"metric"` // "switch", "mprotect-page" or "syscall"
	Domains int     `json:"domains,omitempty"`
	Cycles  float64 `json:"cycles"`
}

// BackendMatrix is the full comparison matrix of one platform.
type BackendMatrix struct {
	Machine string        `json:"machine"`
	Cells   []BackendCell `json:"cells"`
}

// backendEnter returns the lz_enter arguments a backend's benchmark
// processes use: overlay domains are data-only and never switch page
// tables, so they enter unscalable under the POR-admitting policy; the
// other backends enter scalable under the TTBR policy.
func backendEnter(backend string) (scalable uint64, pol core.SanPolicy) {
	if backend == "overlay" {
		return 0, core.SanOverlay
	}
	return 1, core.SanTTBR
}

// buildOverlaySwitchProgram builds the overlay-backend benchmark: one
// overlay key per domain, all domain pages tagged in the single base table.
// A domain switch is one untrapped POR_EL1 write — no gate, no table
// switch, no TLB effect.
func buildOverlaySwitchProgram(a *arm64.Asm, cfg DomainSwitchConfig) {
	svcCall(a, core.SysLZEnter, 0, uint64(core.SanOverlay))
	for d := 0; d < cfg.Domains; d++ {
		hvcCall(a, core.SysLZAlloc) // keys are sequential from 1: domain d gets d+1
		addr := domainRegionBase + uint64(d)*domainRegionStride
		hvcCall(a, core.SysLZProt, addr, mem.PageSize, uint64(d+1), core.PermRead|core.PermWrite)
	}
	emitSwitchLoop(a, cfg, true, func() {
		a.Emit(arm64.ADDImm(14, 12, 1, false)) // x14 = key = domain + 1
		core.EmitOverlaySwitch(a, 14)
		emitDomainAccess(a)
	})
}

// buildGranuleSwitchProgram builds the granule-backend benchmark: one zone
// per domain, each domain page delegated and assigned to its zone. A domain
// switch is the realm-enter hypercall, which swaps the zone table under
// hypervisor mediation — no gate code, but a trap per switch.
func buildGranuleSwitchProgram(a *arm64.Asm, cfg DomainSwitchConfig) {
	svcCall(a, core.SysLZEnter, 1, uint64(core.SanTTBR))
	for d := 0; d < cfg.Domains; d++ {
		hvcCall(a, core.SysLZAlloc) // zone ids are sequential from 1: domain d gets d+1
		addr := domainRegionBase + uint64(d)*domainRegionStride
		hvcCall(a, core.SysLZProt, addr, mem.PageSize, uint64(d+1), core.PermRead|core.PermWrite)
	}
	emitSwitchLoop(a, cfg, true, func() {
		a.Emit(arm64.ADDImm(0, 12, 1, false)) // x0 = zone = domain + 1
		core.EmitGranuleEnter(a)
		emitDomainAccess(a)
	})
}

// prepareBackendSwitch boots a backend environment and assembles its switch
// benchmark without running it (the overlay/granule analogue of
// prepareDomainSwitch; lightzone callers go through the Table 5 path).
func prepareBackendSwitch(cfg BackendSwitchConfig) (*Env, *kernel.Process, error) {
	if cfg.Domains <= 0 || cfg.Iters <= 0 {
		return nil, nil, fmt.Errorf("bad config %+v", cfg)
	}
	env, err := NewEnvBackend(cfg.Platform, cfg.Backend)
	if err != nil {
		return nil, nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	seq := make([]byte, cfg.Iters)
	for i := range seq {
		seq[i] = byte(rng.Intn(cfg.Domains))
	}
	dcfg := DomainSwitchConfig{Platform: cfg.Platform, Domains: cfg.Domains, Iters: cfg.Iters, Seed: cfg.Seed}
	a := arm64.NewAsm()
	switch cfg.Backend {
	case "overlay":
		buildOverlaySwitchProgram(a, dcfg)
	case "granule":
		buildGranuleSwitchProgram(a, dcfg)
	default:
		return nil, nil, fmt.Errorf("backend %q has no dedicated switch program", cfg.Backend)
	}
	p, err := env.NewProcess("backend-switch", a, seq, nil, kernel.VMA{
		Start: mem.VA(domainRegionBase),
		End:   mem.VA(domainRegionBase + uint64(cfg.Domains)*domainRegionStride),
		Prot:  kernel.ProtRead | kernel.ProtWrite,
		Name:  "domains",
	})
	if err != nil {
		return nil, nil, err
	}
	return env, p, nil
}

// runBackendSwitch measures one backend's average switch-and-access cost.
// The lightzone cell is the Table 5 scalable-TTBR cell, byte for byte.
func runBackendSwitch(cfg BackendSwitchConfig) (float64, *Env, error) {
	if cfg.Backend == "lightzone" {
		res, env, err := runDomainSwitch(DomainSwitchConfig{
			Platform: cfg.Platform, Variant: VariantLZTTBR,
			Domains: cfg.Domains, Iters: cfg.Iters, Seed: cfg.Seed,
		}, nil)
		return res.AvgCycles, env, err
	}
	env, p, err := prepareBackendSwitch(cfg)
	if err != nil {
		return 0, nil, err
	}
	if err := env.Run(p, domainSwitchBudget(DomainSwitchConfig{Iters: cfg.Iters})); err != nil {
		return 0, nil, err
	}
	if p.Killed {
		return 0, nil, fmt.Errorf("benchmark killed: %s", p.KillMsg)
	}
	m, err := env.Measured()
	if err != nil {
		return 0, nil, err
	}
	return float64(m) / float64(cfg.Iters), env, nil
}

// RunBackendSwitch measures one backend's switch cost (exported for the
// conformance tests and lzbench).
func RunBackendSwitch(cfg BackendSwitchConfig) (float64, error) {
	v, _, err := runBackendSwitch(cfg)
	return v, err
}

// measureBackendProt measures a backend's per-page lz_prot cost by marking
// around one call covering backendProtPages pages: lightzone remaps into a
// domain table under break-before-make, overlay retags descriptors in
// place, granule delegates and assigns each granule through the hypervisor.
func measureBackendProt(plat Platform, backend string) (float64, error) {
	env, err := NewEnvBackend(plat, backend)
	if err != nil {
		return 0, err
	}
	scalable, pol := backendEnter(backend)
	a := arm64.NewAsm()
	svcCall(a, core.SysLZEnter, scalable, uint64(pol))
	hvcCall(a, core.SysLZAlloc) // domain 1 under every backend
	hvcCall(a, SysMarkBegin)
	hvcCall(a, core.SysLZProt, domainRegionBase, backendProtPages*mem.PageSize, 1, core.PermRead|core.PermWrite)
	hvcCall(a, SysMarkEnd)
	hvcCall(a, kernel.SysExit, 0)
	p, err := env.NewProcess("backend-prot", a, nil, nil, kernel.VMA{
		Start: mem.VA(domainRegionBase),
		End:   mem.VA(domainRegionBase + backendProtPages*mem.PageSize),
		Prot:  kernel.ProtRead | kernel.ProtWrite,
		Name:  "prot-region",
	})
	if err != nil {
		return 0, err
	}
	if err := env.Run(p, 100_000); err != nil {
		return 0, err
	}
	if p.Killed {
		return 0, fmt.Errorf("prot probe killed: %s", p.KillMsg)
	}
	m, err := env.Measured()
	if err != nil {
		return 0, err
	}
	return float64(m) / backendProtPages, nil
}

// measureBackendSyscall measures the Table 4 lz-syscall roundtrip under a
// backend (the kernel-crossing path is substrate-invariant; equal numbers
// across backends are the expected result, and the matrix proves it).
func measureBackendSyscall(plat Platform, backend string) (float64, error) {
	env, err := NewEnvBackend(plat, backend)
	if err != nil {
		return 0, err
	}
	const iters = 64
	scalable, pol := backendEnter(backend)
	a := arm64.NewAsm()
	svcCall(a, core.SysLZEnter, scalable, uint64(pol))
	hvcCall(a, SysMarkBegin)
	for i := 0; i < iters; i++ {
		hvcCall(a, 172) // getpid
	}
	hvcCall(a, SysMarkEnd)
	hvcCall(a, kernel.SysExit, 0)
	p, err := env.NewProcess("backend-syscall", a, nil, nil)
	if err != nil {
		return 0, err
	}
	if err := env.Run(p, 1_000_000); err != nil {
		return 0, err
	}
	if p.Killed {
		return 0, fmt.Errorf("syscall probe killed: %s", p.KillMsg)
	}
	m, err := env.Measured()
	if err != nil {
		return 0, err
	}
	return float64(m) / iters, nil
}

// BackendSweep measures the comparison matrix on one platform: per listed
// backend, the switch cost at every Table 5 domain count, the per-page
// lz_prot cost, and the lz-syscall roundtrip. One fleet cell per
// measurement; cells boot private machines and share nothing.
func (f *Fleet) BackendSweep(plat Platform, backends []string, iters int) (BackendMatrix, error) {
	type job struct {
		backend string
		metric  string
		domains int
	}
	var jobs []job
	for _, b := range backends {
		for _, d := range Table5Domains {
			jobs = append(jobs, job{b, "switch", d})
		}
		jobs = append(jobs, job{b, "mprotect-page", 0})
		jobs = append(jobs, job{b, "syscall", 0})
	}
	cells := make([]BackendCell, len(jobs))
	err := f.Run(len(jobs), func(i int) error {
		j := jobs[i]
		var v float64
		var err error
		switch j.metric {
		case "switch":
			v, err = RunBackendSwitch(BackendSwitchConfig{
				Platform: plat, Backend: j.backend,
				Domains: j.domains, Iters: iters, Seed: Table5Seed,
			})
		case "mprotect-page":
			v, err = measureBackendProt(plat, j.backend)
		case "syscall":
			v, err = measureBackendSyscall(plat, j.backend)
		}
		if err != nil {
			return fmt.Errorf("%s/%s/domains=%d: %w", j.backend, j.metric, j.domains, err)
		}
		cells[i] = BackendCell{Backend: j.backend, Metric: j.metric, Domains: j.domains, Cycles: v}
		return nil
	})
	if err != nil {
		return BackendMatrix{}, err
	}
	return BackendMatrix{Machine: plat.String(), Cells: cells}, nil
}
