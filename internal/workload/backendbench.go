package workload

import (
	"fmt"

	"lightzone/internal/arm64"
	"lightzone/internal/core"
	"lightzone/internal/kernel"
	"lightzone/internal/mem"
)

// Backend comparison matrix: the same isolation lifecycle measured under
// every registered backend. Each backend's switch cell is a Table 5 variant
// (lightzone's is the scalable-TTBR cell), run on the one harness, so the
// random domain sequence, warm-up discipline and marker placement are
// identical across backends — only the switch instruction sequence and the
// lz_prot cost model differ.

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

// emitBackendDomains enters LightZone with the variant's backend arguments
// and gives each domain its page. Overlay keys and granule zone ids are
// sequential from 1: domain d gets d+1.
func emitBackendDomains(a *arm64.Asm, cfg DomainSwitchConfig) {
	scalable, pol := backendEnter(cfg.Variant.backend())
	svcCall(a, core.SysLZEnter, scalable, uint64(pol))
	for d := 0; d < cfg.Domains; d++ {
		hvcCall(a, core.SysLZAlloc)
		addr := domainRegionBase + uint64(d)*domainRegionStride
		hvcCall(a, core.SysLZProt, addr, mem.PageSize, uint64(d+1), core.PermRead|core.PermWrite)
	}
}

// buildOverlaySwitchProgram builds the overlay-backend benchmark: one
// overlay key per domain, all domain pages tagged in the single base table.
// A domain switch is one untrapped POR_EL1 write — no gate, no table
// switch, no TLB effect.
func buildOverlaySwitchProgram(a *arm64.Asm, cfg DomainSwitchConfig) {
	emitBackendDomains(a, cfg)
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
	emitBackendDomains(a, cfg)
	emitSwitchLoop(a, cfg, true, func() {
		a.Emit(arm64.ADDImm(0, 12, 1, false)) // x0 = zone = domain + 1
		core.EmitGranuleEnter(a)
		emitDomainAccess(a)
	})
}

// switchVariant is the Table 5 variant that measures a backend's switch.
func switchVariant(backend string) Variant {
	if backend == "lightzone" {
		return VariantLZTTBR
	}
	return Variant(backend)
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
	m, err := env.runMeasured(p, 100_000)
	if err != nil {
		return 0, err
	}
	return float64(m) / backendProtPages, nil
}

// BackendSweep measures the comparison matrix on one platform: per listed
// backend, the switch cost at every Table 5 domain count, the per-page
// lz_prot cost, and the lz-syscall roundtrip (the Table 4 probe; the
// kernel-crossing path is substrate-invariant, and equal numbers across
// backends are the expected result). One fleet cell per
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
			var res DomainSwitchResult
			res, err = RunDomainSwitch(DomainSwitchConfig{
				Platform: plat, Variant: switchVariant(j.backend),
				Domains: j.domains, Iters: iters, Seed: Table5Seed,
			})
			v = res.AvgCycles
		case "mprotect-page":
			v, err = measureBackendProt(plat, j.backend)
		case "syscall":
			var env *Env
			if env, err = NewEnvBackend(plat, j.backend); err == nil {
				v, err = measureSyscallInEnv(env, true)
			}
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
