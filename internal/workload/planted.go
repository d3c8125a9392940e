package workload

import (
	"encoding/binary"
	"fmt"

	"lightzone/internal/arm64"
	"lightzone/internal/core"
	"lightzone/internal/kernel"
	"lightzone/internal/mem"
)

// PlantedResult is one static-detection cell: a machine with a deliberately
// planted security violation, and whether the matching verifier checker
// reported it at the expected guest VA. Every planted attack is constructed
// so that the dynamic path never observes it — tampering happens after the
// benchmark process has exited, or the violating instructions are placed
// behind a branch the program never takes — so a Caught result means the
// violation was found statically, before any dynamic trap could fire.
type PlantedResult struct {
	Name    string `json:"name"`
	Checker string `json:"checker"`
	VA      uint64 `json:"va"`
	Caught  bool   `json:"caught"`
	Total   int    `json:"total_findings"`
	Detail  string `json:"detail,omitempty"`
}

// plantedAttack builds a tampered machine and names the checker + VA that
// must appear in its verification report. absent, when non-zero, is a VA
// that must NOT be flagged (the literal-pool / unreachable-word control).
type plantedAttack struct {
	name    string
	checker string
	build   func(plat Platform) (env *Env, va uint64, absent uint64, err error)
}

// plantedCleanTTBR runs a small scalable-TTBR benchmark to completion and
// hands back the machine with its LightZone process state intact. The
// process has exited cleanly: everything done to the machine afterwards is
// invisible to the dynamic enforcement paths by construction.
func plantedCleanTTBR(plat Platform) (*Env, *core.LZProc, error) {
	cfg := DomainSwitchConfig{Platform: plat, Variant: VariantLZTTBR, Domains: 8, Iters: 64, Seed: Table5Seed}
	_, env, err := runDomainSwitch(cfg, nil)
	if err != nil {
		return nil, nil, err
	}
	procs := env.LZ.Procs()
	if len(procs) == 0 {
		return nil, nil, fmt.Errorf("no LightZone process survived the run")
	}
	return env, procs[0], nil
}

// plantedExecPage picks a sanitizer-admitted executable page of the process
// and resolves the real frame behind its base-table mapping.
func plantedExecPage(lp *core.LZProc) (mem.VA, mem.PA, error) {
	pages := lp.ExecCleanPages()
	if len(pages) == 0 {
		return 0, 0, fmt.Errorf("no exec-clean pages")
	}
	va := pages[0]
	d0, ok := lp.PageTable(0)
	if !ok {
		return 0, 0, fmt.Errorf("base page table missing")
	}
	res, err := d0.S1.Walk(va)
	if err != nil || !res.Found {
		return 0, 0, fmt.Errorf("exec-clean page %v not mapped in base table", va)
	}
	if res.BlockShift != mem.PageShift {
		return 0, 0, fmt.Errorf("exec-clean page %v unexpectedly block-mapped", va)
	}
	real, ok := lp.Fake().RealOf(mem.IPA(res.Desc & mem.OAMask))
	if !ok {
		return 0, 0, fmt.Errorf("no real frame behind exec-clean page %v", va)
	}
	return va, real, nil
}

// plantedCFGMachine assembles a SanNone process whose text contains a TLBI
// and a raw TTBR0_EL1 write hidden behind a branch that is always taken at
// run time, plus a TLBI-encoded data word behind an unconditional back-edge
// (a literal pool), and runs it under the named isolation backend. The
// process runs to completion untrapped — only the CFG checker, which walks
// static reachability rather than executed paths, can tell the first two
// from the third.
func plantedCFGMachine(plat Platform, backend string) (*Env, map[string]uint64, error) {
	a := arm64.NewAsm()
	svcCall(a, core.SysLZEnter, 0, uint64(core.SanNone))
	a.MovImm(0, 0)
	a.CBZ(0, "clean") // always taken: the attack body never executes
	a.Label("tlbi")
	a.Emit(arm64.TLBIVMALLE1())
	a.Label("msr")
	a.Emit(arm64.MSR(arm64.TTBR0EL1, 9)) // TTBR0 write outside any call gate
	a.Label("clean")
	hvcCall(a, kernel.SysExit, 0)
	a.B("clean") // statically closes the walk; the pool below is unreachable
	a.Label("pool")
	a.Emit(arm64.TLBIVMALLE1()) // same encoding as a data word: must not be flagged

	env, err := NewEnvBackend(plat, backend)
	if err != nil {
		return nil, nil, err
	}
	p, err := env.NewProcess("planted-cfg", a, nil, nil)
	if err != nil {
		return nil, nil, err
	}
	if err := env.Run(p, 100_000); err != nil {
		return nil, nil, err
	}
	if p.Killed {
		return nil, nil, fmt.Errorf("planted CFG process was killed dynamically: %s", p.KillMsg)
	}
	labels := make(map[string]uint64)
	for _, l := range []string{"tlbi", "msr", "pool"} {
		off, err := a.Offset(l)
		if err != nil {
			return nil, nil, err
		}
		labels[l] = uint64(kernel.TextBase) + uint64(off)
	}
	return env, labels, nil
}

// buildSemanticGate mirrors core's generated gate for gate 0 with one
// byte-plausible semantic mutation — every instruction is individually
// legal in a gate (the structural audit accepts it) and the dynamic path
// never misbehaves, so only the gate-semantics proof can reject it. It
// returns the assembled words and the VA where the proof must report.
func buildSemanticGate(variant string) ([]uint32, uint64, error) {
	a := arm64.NewAsm()
	base := core.GateCodeBase() // gate 0
	adrTo := func(rd uint8, target uint64) {
		a.Emit(arm64.ADR(rd, int64(target)-int64(base)-int64(a.Len())))
	}
	gateTabEntry := core.GateTabBase() // GateTab[0]
	ttbrTab := core.TTBRTabBase()

	// ① switch phase (identical to the generated gate).
	adrTo(16, gateTabEntry)
	a.Emit(arm64.LDRImm(17, 16, 8, 3))
	adrTo(18, ttbrTab)
	a.Emit(arm64.ADDShifted(18, 18, 17, 3))
	a.Emit(arm64.LDRImm(17, 18, 0, 3))
	a.Label("msr")
	a.Emit(arm64.MSR(arm64.TTBR0EL1, 17))
	a.Emit(arm64.WordISB)
	// ② check phase.
	adrTo(16, gateTabEntry)
	a.Emit(arm64.LDRImm(19, 16, 0, 3))
	a.Emit(arm64.CMPReg(30, 19))
	a.BCond(arm64.CondNE, "fail")
	a.Emit(arm64.LDRImm(17, 16, 8, 3))
	adrTo(18, ttbrTab)
	a.Emit(arm64.ADDShifted(18, 18, 17, 3))
	a.Emit(arm64.MRS(19, arm64.TTBR0EL1))
	if variant == "ttbr-unproven" {
		// The re-read of TTBRTab[PGTID] becomes a copy of the in-register
		// TTBR0: the compare below degenerates to x19 == x19. Dynamically
		// the check "passes" with the honest value every time; statically
		// the installed table is no longer derived from the TTBRTab.
		a.Emit(arm64.MOVReg(20, 19))
	} else {
		a.Emit(arm64.LDRImm(20, 18, 0, 3))
	}
	a.Emit(arm64.CMPReg(19, 20))
	a.BCond(arm64.CondNE, "fail")
	switch variant {
	case "pan-elide":
		// Cold path: x19 holds the live TTBR0 here, which is never zero,
		// so the CBNZ always skips the PAN clear at run time — but an
		// attacker entering at the compare above arrives with x19 free.
		a.CBNZ(19, "ret")
		a.Label("pan")
		core.EmitSetPAN(a, 0)
		a.Label("ret")
		a.Emit(arm64.RET(30))
	case "exit-redirect":
		// Exit through x17 (the PGTID scratch register) instead of the
		// validated link register: a computed exit the check phase never
		// re-validates. rets==1 still holds structurally.
		a.Label("ret")
		a.Emit(arm64.RET(17))
	default:
		a.Label("ret")
		a.Emit(arm64.RET(30))
	}
	a.Label("fail")
	a.Emit(arm64.HVC(core.HVCViolation))

	words, err := a.Assemble()
	if err != nil {
		return nil, 0, err
	}
	if len(words)*arm64.InsnBytes > core.GateSlotLen {
		return nil, 0, fmt.Errorf("variant gate exceeds slot: %d bytes", len(words)*arm64.InsnBytes)
	}
	flagLabel := map[string]string{
		"pan-elide":     "pan", // the elidable PAN write
		"ttbr-unproven": "msr", // the switch whose value is unproven
		"exit-redirect": "ret", // the computed exit
	}[variant]
	off, err := a.Offset(flagLabel)
	if err != nil {
		return nil, 0, err
	}
	return words, base + uint64(off), nil
}

// plantedSemanticGate rebuilds gate 0's slot with a semantic variant and
// installs it. The slot write is followed by a decode-cache invalidation —
// the same host-side hook a legitimate gate (re)install performs — so the
// cache-coherence checker stays quiet and the catch is attributable to
// gate-semantics alone.
func plantedSemanticGate(plat Platform, variant string) (*Env, uint64, error) {
	env, lp, err := plantedCleanTTBR(plat)
	if err != nil {
		return nil, 0, err
	}
	if len(lp.Gates()) == 0 {
		return nil, 0, fmt.Errorf("no gates registered")
	}
	words, flagVA, err := buildSemanticGate(variant)
	if err != nil {
		return nil, 0, err
	}
	slotVA := core.GateCodeBase()
	res, err := lp.TTBR1Table().Walk(mem.VA(slotVA))
	if err != nil || !res.Found {
		return nil, 0, fmt.Errorf("gate slot not mapped: %v", err)
	}
	real, ok := lp.Fake().RealOf(mem.IPA(res.Desc & mem.OAMask))
	if !ok {
		return nil, 0, fmt.Errorf("no real frame behind gate slot")
	}
	buf := make([]byte, core.GateSlotLen) // zero tail clears the old gate
	copy(buf, arm64.WordsToBytes(words))
	if err := env.M.PM.Write(real+mem.PA(slotVA&mem.PageMask), buf); err != nil {
		return nil, 0, err
	}
	env.M.CPU.InvalidateCode(mem.VA(slotVA))
	return env, flagVA, nil
}

// attackSemanticGate wraps one buildSemanticGate variant as a battery cell.
func attackSemanticGate(name, variant string) plantedAttack {
	return plantedAttack{
		name: name, checker: "gate-semantics",
		build: func(plat Platform) (*Env, uint64, uint64, error) {
			env, va, err := plantedSemanticGate(plat, variant)
			if err != nil {
				return nil, 0, 0, err
			}
			return env, va, 0, nil
		},
	}
}

// plantedAttacks is the battery: one cell per attack from the paper's threat
// model, each paired with the checker that must catch it.
func plantedAttacks() []plantedAttack {
	return []plantedAttack{
		attackWXFlip("lightzone"),
		{
			// Redirect gate 0's registered entry point in the GateTab.
			name: "gatetab-tamper", checker: "gate-integrity",
			build: func(plat Platform) (*Env, uint64, uint64, error) {
				env, lp, err := plantedCleanTTBR(plat)
				if err != nil {
					return nil, 0, 0, err
				}
				if len(lp.Gates()) == 0 {
					return nil, 0, 0, fmt.Errorf("no gates registered")
				}
				if err := env.M.PM.WriteU64(lp.GateTabPA(), 0xdead_0000); err != nil {
					return nil, 0, 0, err
				}
				return env, core.GateTabBase(), 0, nil
			},
		},
		attackSmuggledWord("lightzone"),
		attackTTBR0Write("lightzone"),
		attackReachableTLBI("lightzone"),
		{
			// Overwrite the first instruction of gate 0's code slot.
			name: "gate-code-tamper", checker: "gate-integrity",
			build: func(plat Platform) (*Env, uint64, uint64, error) {
				env, lp, err := plantedCleanTTBR(plat)
				if err != nil {
					return nil, 0, 0, err
				}
				slotVA := core.GateCodeBase()
				res, err := lp.TTBR1Table().Walk(mem.VA(slotVA))
				if err != nil || !res.Found {
					return nil, 0, 0, fmt.Errorf("gate slot not mapped: %v", err)
				}
				real, ok := lp.Fake().RealOf(mem.IPA(res.Desc & mem.OAMask))
				if !ok {
					return nil, 0, 0, fmt.Errorf("no real frame behind gate slot")
				}
				var buf [4]byte
				binary.LittleEndian.PutUint32(buf[:], arm64.SVC(0))
				if err := env.M.PM.Write(real+mem.PA(slotVA&mem.PageMask), buf[:]); err != nil {
					return nil, 0, 0, err
				}
				return env, slotVA, 0, nil
			},
		},
		attackTLBTamper("lightzone"),
		attackSemanticGate("gate-pan-elide", "pan-elide"),
		attackSemanticGate("gate-ttbr-unproven", "ttbr-unproven"),
		attackSemanticGate("gate-exit-redirect", "exit-redirect"),
	}
}

// PlantedSweep runs the planted-attack battery, one fleet cell per attack.
// Each cell must be caught by its designated checker at the exact planted
// VA, and the literal-pool control word must never be flagged. Missing
// either is an error, not a result row.
func (f *Fleet) PlantedSweep(plat Platform) ([]PlantedResult, error) {
	return f.plantedSweep(plat, plantedAttacks())
}
