package workload

import (
	"strings"
	"testing"

	"lightzone/internal/arm64"
	"lightzone/internal/core"
	"lightzone/internal/kernel"
	"lightzone/internal/mem"
	"lightzone/internal/verify"
)

func carmelHost() Platform { return Platform{Prof: arm64.ProfileCarmel()} }

// buildLifecycle assembles the shared conformance script: enter → allocate
// three domains → protect one page each in domains 1 and 2 → switch into
// domain 1 → legally access its page → free the idle domain 3 → touch
// domain 2's page from domain 1. The last access must kill the process
// with the backend's documented fault class; everything before it must
// succeed. Only the enter arguments and the switch instruction sequence
// differ per backend — the lifecycle itself is substrate-invariant.
func buildLifecycle(a *arm64.Asm, backend string) []core.GateEntry {
	page0 := domainRegionBase
	page1 := domainRegionBase + domainRegionStride
	scalable, pol := backendEnter(backend)
	svcCall(a, core.SysLZEnter, scalable, uint64(pol))
	hvcCall(a, core.SysLZAlloc)
	hvcCall(a, core.SysLZAlloc)
	hvcCall(a, core.SysLZAlloc)
	if backend == "lightzone" {
		hvcCall(a, core.SysLZMapGatePgt, 1, 0)
	}
	hvcCall(a, core.SysLZProt, page0, mem.PageSize, 1, core.PermRead|core.PermWrite)
	hvcCall(a, core.SysLZProt, page1, mem.PageSize, 2, core.PermRead|core.PermWrite)
	switch backend {
	case "lightzone":
		a.MovImm(13, core.GateCodeBase())
		a.ADR(30, "in1")
		a.Emit(arm64.BR(13))
		a.Label("in1")
	case "overlay":
		a.MovImm(14, 1)
		core.EmitOverlaySwitch(a, 14)
	case "granule":
		a.MovImm(0, 1)
		core.EmitGranuleEnter(a)
	}
	// Legal: domain 1 reads its own page.
	a.MovImm(13, page0)
	a.Emit(arm64.LDRImm(9, 13, 0, 3))
	// Free the idle spare domain.
	hvcCall(a, core.SysLZFree, 3)
	// Violation: domain 1 reads domain 2's page. Must not return.
	a.MovImm(13, page1)
	a.Emit(arm64.LDRImm(9, 13, 0, 3))
	hvcCall(a, kernel.SysExit, 0)
	if backend == "lightzone" {
		off, err := a.Offset("in1")
		if err != nil {
			return nil
		}
		return []core.GateEntry{{GateID: 0, Entry: uint64(off)}}
	}
	return nil
}

// TestBackendLifecycleConformance drives every registered backend through
// the same lifecycle script and asserts the documented per-backend fault
// class, the shared observer-event sequence, and that the post-mortem
// machine verifies clean under the backend's own checker registry.
func TestBackendLifecycleConformance(t *testing.T) {
	wantKill := map[string]string{
		"lightzone": "not mapped by current page table",
		"overlay":   "overlay key mismatch",
		"granule":   "granule protection fault",
	}
	// The lifecycle chokepoints every backend must announce, in order.
	// Backend-specific extras (gate binding, sanitizer passes) are filtered
	// out: the shared contract is about the shared lifecycle.
	lifecycle := map[string]bool{
		"lz_enter": true, "lz_alloc": true, "lz_prot": true, "lz_free": true,
	}
	wantEvents := []string{
		"lz_enter", "lz_alloc", "lz_alloc", "lz_alloc",
		"lz_prot", "lz_prot", "lz_free",
	}
	for _, backend := range core.Backends() {
		t.Run(backend, func(t *testing.T) {
			env, err := NewEnvBackend(carmelHost(), backend)
			if err != nil {
				t.Fatal(err)
			}
			var events []string
			env.LZ.Observer = func(event string, lp *core.LZProc) {
				if lifecycle[event] {
					events = append(events, event)
				}
			}
			a := arm64.NewAsm()
			entries := buildLifecycle(a, backend)
			p, err := env.NewProcess("lifecycle", a, nil, entries, kernel.VMA{
				Start: mem.VA(domainRegionBase),
				End:   mem.VA(domainRegionBase + 2*domainRegionStride),
				Prot:  kernel.ProtRead | kernel.ProtWrite,
				Name:  "domains",
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := env.Run(p, 100_000); err != nil {
				t.Fatal(err)
			}
			if !p.Killed {
				t.Fatalf("cross-domain access survived under %s", backend)
			}
			if !strings.Contains(p.KillMsg, wantKill[backend]) {
				t.Fatalf("kill message %q does not carry the %s fault class %q",
					p.KillMsg, backend, wantKill[backend])
			}
			if len(events) != len(wantEvents) {
				t.Fatalf("observer saw %v, want %v", events, wantEvents)
			}
			for i := range events {
				if events[i] != wantEvents[i] {
					t.Fatalf("observer event %d is %q, want %q (%v)", i, events[i], wantEvents[i], events)
				}
			}
			procs := env.LZ.Procs()
			if len(procs) != 1 || procs[0].BackendName() != backend {
				t.Fatalf("process backend not recorded: %v", procs)
			}
			rep, err := verify.RunMachine(env.M, env.LZ)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Clean() {
				t.Fatalf("post-mortem machine not clean under %s registry: %v", backend, rep.Findings)
			}
			wantChecker := map[string]string{
				"lightzone": "gate-integrity",
				"overlay":   "overlay-keys",
				"granule":   "granule-state",
			}[backend]
			found := false
			for _, c := range rep.Checkers {
				found = found || c.Name == wantChecker
			}
			if !found {
				t.Fatalf("report ran %v; expected the %s substrate checker %q", rep.Checkers, backend, wantChecker)
			}
		})
	}
}

// TestBackendRegistry pins the registry surface: the three backends, the
// unknown-name error, and per-backend checker selection.
func TestBackendRegistry(t *testing.T) {
	got := core.Backends()
	want := []string{"granule", "lightzone", "overlay"} // sorted
	if len(got) != len(want) {
		t.Fatalf("Backends() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Backends() = %v, want %v", got, want)
		}
	}
	if _, err := core.NewBackend("enclave"); err == nil {
		t.Fatal("unknown backend accepted")
	}
	if _, err := NewEnvBackend(carmelHost(), "enclave"); err == nil {
		t.Fatal("NewEnvBackend accepted an unknown backend")
	}
	for backend, slot := range map[string]string{
		"lightzone": "gate-integrity",
		"overlay":   "overlay-keys",
		"granule":   "granule-state",
	} {
		names := make([]string, 0, 5)
		for _, c := range verify.CheckersFor(backend) {
			names = append(names, c.Name)
		}
		found := false
		for _, n := range names {
			found = found || n == slot
		}
		if !found {
			t.Fatalf("CheckersFor(%s) = %v, missing %s", backend, names, slot)
		}
	}
}

// TestBackendSwitchMeasures runs the three switch benchmarks at a small
// configuration and sanity-checks the cost ordering the backends' models
// promise: the granule switch pays a trap round trip and must dominate;
// the overlay and gate switches stay trap-free.
func TestBackendSwitchMeasures(t *testing.T) {
	switchCost := func(plat Platform, backend string) (float64, error) {
		res, err := RunDomainSwitch(DomainSwitchConfig{
			Platform: plat, Variant: switchVariant(backend), Domains: 8, Iters: 64, Seed: Table5Seed,
		})
		return res.AvgCycles, err
	}
	cost := map[string]float64{}
	for _, b := range BackendOrder() {
		v, err := switchCost(carmelHost(), b)
		if err != nil {
			t.Fatalf("%s: %v", b, err)
		}
		if v <= 0 {
			t.Fatalf("%s: non-positive switch cost %v", b, v)
		}
		cost[b] = v
	}
	if cost["granule"] <= cost["lightzone"] || cost["granule"] <= cost["overlay"] {
		t.Fatalf("granule switch should pay a trap round trip: %v", cost)
	}
	// On Carmel an EL1 system-register write costs hundreds of cycles, so
	// the overlay switch is NOT meaningfully cheaper than a gate pass —
	// that platform contrast is the point of the comparison matrix. On
	// Cortex-A55 the same write costs single digits and overlay must win.
	cortex := Platform{Prof: arm64.ProfileCortexA55()}
	ov, err := switchCost(cortex, "overlay")
	if err != nil {
		t.Fatal(err)
	}
	gate, err := switchCost(cortex, "lightzone")
	if err != nil {
		t.Fatal(err)
	}
	if ov >= gate {
		t.Fatalf("on Cortex-A55 the overlay switch (%v) should undercut the gate pass (%v)", ov, gate)
	}
}

// TestBackendProtAndSyscall sanity-checks the remaining matrix metrics: the
// granule lz_prot pays two hypervisor round trips per page and must
// dominate, and the syscall path is substrate-invariant (identical cycles
// under all three backends).
func TestBackendProtAndSyscall(t *testing.T) {
	prot := map[string]float64{}
	var sys []float64
	for _, b := range BackendOrder() {
		v, err := measureBackendProt(carmelHost(), b)
		if err != nil {
			t.Fatalf("%s prot: %v", b, err)
		}
		prot[b] = v
		env, err := NewEnvBackend(carmelHost(), b)
		if err != nil {
			t.Fatal(err)
		}
		s, err := measureSyscallInEnv(env, true)
		if err != nil {
			t.Fatalf("%s syscall: %v", b, err)
		}
		sys = append(sys, s)
	}
	if prot["granule"] <= prot["lightzone"] || prot["granule"] <= prot["overlay"] {
		t.Fatalf("granule delegation should dominate lz_prot: %v", prot)
	}
	for i := 1; i < len(sys); i++ {
		if sys[i] != sys[0] {
			t.Fatalf("syscall roundtrip should be substrate-invariant: %v", sys)
		}
	}
}

// TestBackendCrossIsolation proves the cross-backend claim of the planted
// battery: the substrate-invariant attacks (W-xor-X flip, smuggled word)
// are caught on every backend's machine — by the same substrate-invariant
// checker, not by luck of the default registry.
func TestBackendCrossIsolation(t *testing.T) {
	attacks := []func(string) plantedAttack{attackWXFlip, attackSmuggledWord}
	for _, b := range core.Backends() {
		for _, mk := range attacks {
			atk := mk(b)
			env, va, _, err := atk.build(carmelHost())
			if err != nil {
				t.Fatalf("%s/%s: %v", b, atk.name, err)
			}
			rep, err := verify.RunMachine(env.M, env.LZ)
			if err != nil {
				t.Fatalf("%s/%s: %v", b, atk.name, err)
			}
			caught := false
			for _, fd := range rep.Findings {
				caught = caught || (fd.Checker == atk.checker && fd.VA == va)
			}
			if !caught {
				t.Fatalf("%s not caught by %s on the %s machine (%d findings)",
					atk.name, atk.checker, b, len(rep.Findings))
			}
		}
	}
}

// TestPlantedSweepBackends runs the full per-backend batteries: every
// attack must be caught by its designated checker at the planted address.
func TestPlantedSweepBackends(t *testing.T) {
	f := NewFleet(0)
	for _, b := range core.Backends() {
		res, err := f.PlantedSweep(carmelHost(), b)
		if err != nil {
			t.Fatalf("%s: %v", b, err)
		}
		for _, r := range res {
			if !r.Caught {
				t.Fatalf("%s/%s not caught", b, r.Name)
			}
		}
	}
}
