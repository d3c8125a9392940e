// Package core implements LightZone itself: the kernel module that places
// ARM64 processes in the kernel mode (EL1) of their own virtual machines
// and provides TTBR0-based scalable and PAN-based efficient in-process
// isolation (paper §4-§6), including the TTBR1-mapped secure call gate,
// the sensitive-instruction sanitizer with W xor X and break-before-make
// enforcement, the fake-physical-address randomization layer, the trap
// forwarding paths for host and guest LightZone processes, and the
// Lowvisor for software nested virtualization.
package core

import (
	"fmt"

	"lightzone/internal/arm64"
	"lightzone/internal/cpu"
	"lightzone/internal/hyp"
	"lightzone/internal/kernel"
	"lightzone/internal/mem"
	"lightzone/internal/trace"
)

// LightZone API syscall numbers (module-owned; outside the Linux range).
const (
	SysLZEnter      = 460
	SysLZAlloc      = 461
	SysLZFree       = 462
	SysLZProt       = 463
	SysLZMapGatePgt = 464
)

// Opts are module-level configuration and ablation switches.
type Opts struct {
	// IdentityPhys disables the fake-physical randomization layer (the
	// paper's "intuitive" stage-2 translation, §5.1.2).
	IdentityPhys bool
	// DisableEagerS2 disables eager stage-2 mapping during stage-1
	// faults (§5.2), forcing the back-to-back fault pattern.
	DisableEagerS2 bool
}

// LightZone is the kernel module (and, in guest mode, the guest kernel
// module collaborating with the Lowvisor).
type LightZone struct {
	Hyp  *hyp.Hypervisor
	Opts Opts
	// Trace, when set, records the module's activity (nil-safe).
	Trace *trace.Recorder
	// GuestMode marks the module instance loaded inside a guest kernel:
	// hypervisor-privileged operations are redirected through the
	// NEVE-style shared page instead of trapping (§5.2.2).
	GuestMode bool

	// Observer, when set, is invoked after every security-state mutation
	// chokepoint (lz_enter, lz_prot, lz_alloc, lz_free, lz_map_gate_pgt,
	// sanitizer admission, W-xor-X flips) with the event name and the
	// affected process. The -invariants mode hangs the static verifier
	// here. Observers must be observation-only: the hook runs outside the
	// cycle model and must not mutate machine state.
	Observer func(event string, lp *LZProc)

	// backend is the isolation substrate new processes enter with
	// (SetBackend swaps it; the default is the paper's lightzone).
	backend Backend

	procs          map[int]*LZProc
	pendingEntries map[int][]GateEntry
}

var _ kernel.Module = (*LightZone)(nil)

// New creates a LightZone module instance bound to the hypervisor.
func New(h *hyp.Hypervisor) *LightZone {
	return &LightZone{
		Hyp:            h,
		backend:        lightzoneBackend{},
		procs:          make(map[int]*LZProc),
		pendingEntries: make(map[int][]GateEntry),
	}
}

// Install loads the module into a kernel (Module hook) — the host kernel
// for host LightZone processes, or a guest kernel (with GuestMode set and
// the Lowvisor installed in the hypervisor) for guest processes.
func (lz *LightZone) Install(k *kernel.Kernel) {
	k.Module = lz
}

// RegisterGateEntries records the statically allocated legitimate entries
// of a program's call-gate uses (§6.2: entries are compile-time constants;
// the trusted loader hands them to the module before lz_enter).
func (lz *LightZone) RegisterGateEntries(p *kernel.Process, entries []GateEntry) {
	lz.pendingEntries[p.PID] = append(lz.pendingEntries[p.PID], entries...)
}

// ProcState returns the per-process LightZone state.
func (lz *LightZone) ProcState(p *kernel.Process) (*LZProc, bool) {
	lp, ok := lz.procs[p.PID]
	return lp, ok
}

// Syscall implements kernel.Module: the module-owned syscall numbers.
func (lz *LightZone) Syscall(k *kernel.Kernel, t *kernel.Thread, num int, args [6]uint64) (uint64, bool, error) {
	switch num {
	case SysLZEnter:
		ret, err := lz.enter(k, t, args[0] != 0, SanPolicy(args[1]))
		return ret, true, err
	case SysLZAlloc, SysLZFree, SysLZProt, SysLZMapGatePgt:
		lp, ok := t.Proc.LZ.(*LZProc)
		if !ok {
			return lzErr(), true, nil
		}
		switch num {
		case SysLZAlloc:
			id, err := lp.backend.Alloc(lp)
			if err != nil {
				return lzErr(), true, nil
			}
			_ = err
			return uint64(id), true, nil
		case SysLZFree:
			if err := lp.backend.Free(lp, int(int64(args[0]))); err != nil {
				return lzErr(), true, nil
			}
			return 0, true, nil
		case SysLZProt:
			perm := int(args[3])
			pgt := int(int64(args[2]))
			if err := lp.backend.Prot(lp, mem.VA(args[0]), args[1], pgt, perm); err != nil {
				return lzErr(), true, nil
			}
			return 0, true, nil
		case SysLZMapGatePgt:
			if err := lp.backend.MapGatePgt(lp, int(int64(args[0])), int(int64(args[1]))); err != nil {
				return lzErr(), true, nil
			}
			return 0, true, nil
		}
	}
	return 0, false, nil
}

func lzErr() uint64 { return ^uint64(0) } // -1

// observe fires the Observer hook (nil-safe).
func (lz *LightZone) observe(event string, lp *LZProc) {
	if lz.Observer != nil {
		lz.Observer(event, lp)
	}
}

// enter implements lz_enter: a one-way ticket into the per-process virtual
// environment (Table 2). The calling thread's process is wrapped in a new
// VM; its address space is duplicated into a kernel-mode base page table
// behind the fake-physical layer; the trap stub and call gates are
// installed in the TTBR1 range; and the thread resumes in EL1.
func (lz *LightZone) enter(k *kernel.Kernel, t *kernel.Thread, allowScalable bool, policy SanPolicy) (uint64, error) {
	p := t.Proc
	if p.LZ != nil {
		return lzErr(), nil
	}
	vm, err := lz.Hyp.NewVM(fmt.Sprintf("lz-%s-%d", p.Name, p.PID), false)
	if err != nil {
		return 0, err
	}
	lp := &LZProc{
		lz:            lz,
		kern:          k,
		proc:          p,
		vm:            vm,
		backend:       lz.backend,
		allowScalable: allowScalable,
		policy:        policy,
		fake:          NewFakePhys(lz.Opts.IdentityPhys),
		pgts:          make(map[int]*DomainPGT),
		byRoot:        make(map[mem.PA]*DomainPGT),
		gateEntries:   make(map[int]uint64),
		gatePgt:       make(map[int]int),
		protected:     make(map[mem.VA]*protInfo),
		exec:          make(map[mem.VA]execState),
	}
	for _, e := range lz.pendingEntries[p.PID] {
		lp.gateEntries[e.GateID] = e.Entry
	}

	// TTBR1 table: stub, gates, GateTab, TTBRTab.
	ttbr1, err := mem.NewStage1(k.PM, 0)
	if err != nil {
		return 0, err
	}
	ttbr1.OnAllocTable = lp.s2MapTable
	if err := lp.s2MapTable(ttbr1.Root()); err != nil {
		return 0, err
	}
	lp.ttbr1 = ttbr1
	lp.ttbr1Val = cpu.MakeTTBR(uint64(ttbr1.Root()), 0)
	if err := lp.installStub(); err != nil {
		return 0, err
	}
	if err := lp.backend.Install(lp); err != nil {
		return 0, err
	}

	// Base page table (id 0): duplicate the kernel-managed address
	// space with kernel-mode permission translation (§5.1.2). Executable
	// pages stay PXN until the sanitizer clears them on first execution.
	base, err := lp.newPGT()
	if err != nil {
		return 0, err
	}
	var dupErr error
	if err := p.AS.S1.Visit(func(va mem.VA, kdesc uint64, size uint64) bool {
		attrs := translateAttrs(kdesc) | mem.AttrPXN
		pa := mem.PA(kdesc & mem.OAMask)
		if dupErr = lp.mapIntoPGT(base, va, pa, size, attrs); dupErr != nil {
			return false
		}
		k.CPU.Charge(4 * k.Prof.MemAccessCost) // duplication cost per page
		return true
	}); err != nil {
		return 0, err
	}
	if dupErr != nil {
		return 0, dupErr
	}
	if err := lp.writeTTBRTab(0, base.TTBR()); err != nil {
		return 0, err
	}

	// Keep duplicated tables synchronized with kernel unmaps and
	// protection changes (§5.1.2).
	p.AS.UnmapNotify = func(va mem.VA) { lp.syncUnmap(va) }
	p.AS.ProtNotify = func(va mem.VA) { lp.syncProt(va) }

	// World configuration: kernel mode of a separate VM, trap stub at
	// VBAR_EL1, sensitive features disabled via HCR_EL2 (§5.1.1). For
	// PAN-only processes, stage-1 control registers are locked with
	// TVM/TRVM; TTBR-mode processes keep them untrapped (the sanitizer
	// and stage-2 carry the security argument, §5.1.2/§6.3).
	hcr := cpu.HCRVM | cpu.HCRTSC | cpu.HCRTTLB | cpu.HCRTACR | cpu.HCRIMO
	if !allowScalable {
		hcr |= cpu.HCRTVM | cpu.HCRTRVM
	}
	lp.world = kernel.World{
		HCR:         hcr,
		VTTBR:       vm.VTTBR(),
		EL:          arm64.EL1,
		EmulatedEL1: true,
		VBAR:        uint64(stubVA),
		TTBR1:       lp.ttbr1Val,
		SCTLR:       cpu.SCTLRM,
	}

	// Apply the world to the live vCPU and rewrite the trap return state
	// so the lz_enter syscall returns into EL1.
	c := k.CPU
	lp.outerVTTBR = c.Sys(arm64.VTTBREL2)
	lz.applyWorldReg(k, arm64.HCREL2, hcr)
	lz.applyWorldReg(k, arm64.VTTBREL2, vm.VTTBR())
	c.SetSys(arm64.VBAREL1, uint64(stubVA))
	c.SetSys(arm64.TTBR1EL1, lp.ttbr1Val)
	c.SetSys(arm64.TTBR0EL1, base.TTBR())
	c.SetSys(arm64.SCTLREL1, cpu.SCTLRM)
	c.EmulatedEL1 = true

	spsrReg := arm64.SPSREL2
	if k.EL == arm64.EL1 {
		spsrReg = arm64.SPSREL1
	}
	spsr := c.Sys(spsrReg)
	spsr = spsr&^arm64.PStateELMask&^arm64.PStateSPSel | arm64.PStateForEL(arm64.EL1)
	c.SetSys(spsrReg, spsr)

	t.Ctx.TTBR0 = base.TTBR()
	t.Ctx.TTBR1 = lp.ttbr1Val
	t.Ctx.VBAR = uint64(stubVA)
	t.Ctx.PState = t.Ctx.PState&^arm64.PStateELMask | arm64.PStateForEL(arm64.EL1)

	p.LZ = lp
	lz.procs[p.PID] = lp
	c.Charge(k.Prof.HypDispatchCost) // VM creation path
	lz.Trace.Record(c.Cycles, trace.KindEnter, p.PID, "scalable=%v policy=%v vmid=%d", allowScalable, policy, vm.VMID)
	// Domain switches are emulated MSR TTBR0_EL1 instructions; observe
	// them for the trace timeline.
	if lz.Trace != nil {
		c.OnTTBR0Write = func(old, new uint64) {
			lz.Trace.Record(c.Cycles, trace.KindDomainSwitch, p.PID, "ttbr0 %#x -> %#x", old, new)
		}
	}
	lz.observe("lz_enter", lp)
	return 0, nil
}

// applyWorldReg writes an EL2 control register: directly (with the retain
// filter) for a host module, or via the NEVE-style shared page for a guest
// module — a memory write instead of a trap to the Lowvisor (§5.2.2).
func (lz *LightZone) applyWorldReg(k *kernel.Kernel, r arm64.SysReg, v uint64) {
	if lz.GuestMode {
		k.CPU.Charge(2 * k.Prof.MemAccessCost)
		k.CPU.SetSys(r, v)
		return
	}
	lz.Hyp.WriteWorldReg(r, v)
}

// syncUnmap mirrors a kernel unmap into every LightZone table and the
// stage-2 fake layer.
func (lp *LZProc) syncUnmap(va mem.VA) {
	// Resolve the fake page before tearing down stage-1.
	if res, err := lp.pgts[0].S1.Walk(va); err == nil && res.Found {
		fk := mem.IPA(res.Desc & mem.OAMask)
		if real, ok := lp.fake.RealOf(fk); ok {
			_, _ = lp.vm.S2.Unmap(fk)
			lp.fake.Drop(real)
		}
	}
	lp.unmapEverywhere(va)
	delete(lp.protected, va)
	delete(lp.exec, va)
}

// syncProt withdraws a page from every LightZone table after the kernel
// changed its protection; the next access demand-maps it with the new
// attributes (and re-sanitizes executable pages).
func (lp *LZProc) syncProt(va mem.VA) {
	base := mem.PageAlignDown(va)
	lp.unmapEverywhere(base)
	delete(lp.exec, base)
}

// HandleExit implements kernel.Module: traps from host LightZone
// processes arriving at the host kernel (EL2).
func (lz *LightZone) HandleExit(k *kernel.Kernel, t *kernel.Thread, exit cpu.Exit) (bool, error) {
	lp, ok := t.Proc.LZ.(*LZProc)
	if !ok {
		return false, nil
	}
	return true, lz.dispatch(k, t, lp, exit)
}

// dispatch is the shared trap handler for host and guest LightZone
// processes (the Lowvisor routes guest traps here after its partial
// context switch).
func (lz *LightZone) dispatch(k *kernel.Kernel, t *kernel.Thread, lp *LZProc, exit cpu.Exit) error {
	lp.Traps++
	c := k.CPU
	s := exit.Syndrome
	lz.Trace.Record(c.Cycles, trace.KindTrap, t.Proc.PID, "%v imm=%#x pc=%#x", s.Class, s.Imm, s.PC)
	switch s.Class {
	case cpu.ECHVC:
		switch s.Imm {
		case HVCSyscall:
			return lz.handleSyscall(k, t, lp, false)
		case HVCForwardSync:
			return lz.handleForwardedSync(k, t, lp)
		case HVCForwardIRQ:
			lp.chargeModuleEntry(k)
			lp.chargeModuleExit(k)
			return c.ERET()
		case HVCViolation:
			lp.violation(t, fmt.Sprintf("call gate check failed (pc=%#x)", s.PC))
			return nil
		default:
			// Backend-private entry paths (e.g. the granule backend's
			// realm-style domain switch) get first refusal.
			if handled, err := lp.backend.HandleHVC(k, t, lp, s); handled {
				return err
			}
			lp.violation(t, fmt.Sprintf("unknown hvc #%#x", s.Imm))
			return nil
		}
	case cpu.ECMSRTrap:
		reg, _ := arm64.LookupSysReg(s.SysEnc)
		lp.violation(t, fmt.Sprintf("trapped sensitive system access to %v at %#x", reg, s.PC))
		return nil
	case cpu.ECSMC:
		lp.violation(t, fmt.Sprintf("smc at %#x", s.PC))
		return nil
	case cpu.ECIRQ:
		lp.chargeModuleEntry(k)
		lp.chargeModuleExit(k)
		return c.ERET()
	case cpu.ECDataAbortLower, cpu.ECDataAbortSame, cpu.ECInsAbortLower, cpu.ECInsAbortSame:
		if s.Stage == 2 {
			return lz.handleStage2Fault(k, t, lp, s)
		}
		// Stage-1 aborts reach EL1 (the stub) first; arriving here
		// directly means a stub fetch failed — fatal.
		lp.violation(t, fmt.Sprintf("unexpected stage-1 abort at EL2: %v", s.VA))
		return nil
	default:
		lp.violation(t, fmt.Sprintf("unhandled trap class %v", s.Class))
		return nil
	}
}

// chargeModuleEntry models the module's trap entry: pt_regs via the shared
// page, syndrome read, dispatch, and the forwarding layer. By default
// HCR_EL2 and VTTBR_EL2 retain their values across the trap (§5.2.1); the
// DisableRetainRegs ablation restores the conventional behaviour of
// switching both to host values on entry and back on exit — on Carmel that
// alone costs ~2,700 cycles per trap.
func (lp *LZProc) chargeModuleEntry(k *kernel.Kernel) {
	c := k.CPU
	if lp.lz.Hyp.Opts.DisableRetainRegs && k.EL == arm64.EL2 {
		hcr, vttbr := c.Sys(arm64.HCREL2), c.Sys(arm64.VTTBREL2)
		c.WriteSysReg(arm64.HCREL2, cpu.HCRE2H) // host configuration
		c.WriteSysReg(arm64.VTTBREL2, 0)
		c.SetSys(arm64.HCREL2, hcr) // values restored on exit below
		c.SetSys(arm64.VTTBREL2, vttbr)
		lp.pendingWorldRestore = true
	}
	c.Charge(16 * k.Prof.MemAccessCost)
	if k.EL == arm64.EL2 {
		c.ReadSysReg(arm64.ESREL2)
	} else {
		c.ReadSysReg(arm64.ESREL1)
	}
	c.Charge(k.Prof.HandlerDispatchCost + k.Prof.ModuleForwardCost)
}

func (lp *LZProc) chargeModuleExit(k *kernel.Kernel) {
	c := k.CPU
	if lp.pendingWorldRestore {
		lp.pendingWorldRestore = false
		c.WriteSysReg(arm64.HCREL2, c.Sys(arm64.HCREL2))
		c.WriteSysReg(arm64.VTTBREL2, c.Sys(arm64.VTTBREL2))
	}
	c.Charge(16 * k.Prof.MemAccessCost)
}

// handleSyscall services a syscall from a LightZone process (either the
// API library's direct HVC fast path, or a raw SVC forwarded by the stub).
func (lz *LightZone) handleSyscall(k *kernel.Kernel, t *kernel.Thread, lp *LZProc, forwarded bool) error {
	lp.chargeModuleEntry(k)
	k.Syscalls++
	c := k.CPU
	num := int(c.R(8))
	lz.Trace.Record(c.Cycles, trace.KindSyscall, t.Proc.PID, "nr=%d forwarded=%v", num, forwarded)
	args := [6]uint64{c.R(0), c.R(1), c.R(2), c.R(3), c.R(4), c.R(5)}
	ret, err := k.DoSyscall(t, num, args)
	if err != nil {
		return err
	}
	c.SetR(0, ret)
	if t.Proc.Exited || t.State == kernel.ThreadExited {
		return nil
	}
	k.CheckSignals(t) // signal contexts carry TTBR0 and PAN (§6)
	lp.chargeModuleExit(k)
	return c.ERET()
}

// handleForwardedSync reconstructs the original EL1 exception from the
// banked ESR_EL1/FAR_EL1 and dispatches it.
func (lz *LightZone) handleForwardedSync(k *kernel.Kernel, t *kernel.Thread, lp *LZProc) error {
	c := k.CPU
	orig := cpu.UnpackESR(c.ReadSysReg(arm64.ESREL1), c.ReadSysReg(arm64.FAREL1))
	switch orig.Class {
	case cpu.ECSVC:
		return lz.handleSyscall(k, t, lp, true)
	case cpu.ECDataAbortSame, cpu.ECDataAbortLower, cpu.ECInsAbortSame, cpu.ECInsAbortLower:
		return lp.backend.HandleFault(k, t, lp, orig)
	case cpu.ECUnknown:
		lp.violation(t, fmt.Sprintf("undefined instruction at %#x", c.Sys(arm64.ELREL1)))
		return nil
	default:
		lp.violation(t, fmt.Sprintf("unexpected forwarded exception %v", orig.Class))
		return nil
	}
}

// handleStage2Fault services a stage-2 abort from a LightZone process: a
// fake IPA with no mapping. With eager stage-2 mapping this only happens
// under the DisableEagerS2 ablation or for genuinely illegal accesses.
func (lz *LightZone) handleStage2Fault(k *kernel.Kernel, t *kernel.Thread, lp *LZProc, s cpu.Syndrome) error {
	lp.chargeModuleEntry(k)
	page := s.IPA &^ mem.IPA(mem.PageMask)
	real, ok := lp.fake.RealOf(page)
	if !ok {
		// Interior page of a 2MB fake block.
		blockFk := s.IPA &^ mem.IPA(mem.HugePageMask)
		if blockReal, blockOK := lp.fake.RealOf(blockFk); blockOK {
			real = blockReal + mem.PA(page-blockFk)
			ok = true
		}
	}
	if !ok {
		lp.violation(t, fmt.Sprintf("stage-2 abort on unknown fake address %v", s.IPA))
		return nil
	}
	if err := lp.s2MapData(page, real); err != nil {
		return err
	}
	lp.chargeModuleExit(k)
	return k.CPU.ERET()
}

// violation terminates a compromised process (§4.2: "we detect
// unauthorized access to protected memory domains and terminate the
// compromised process").
func (lp *LZProc) violation(t *kernel.Thread, msg string) {
	lp.Violations++
	lp.lz.Trace.Record(lp.kern.CPU.Cycles, trace.KindViolation, t.Proc.PID, "%s", msg)
	t.Proc.Kill("lightzone violation: " + msg)
}

// EnterProcess places p's main thread into LightZone directly, without the
// lz_enter syscall round trip. It exists for setup-style tooling (memory
// overhead accounting, examples that drive the module from Go); emulated
// applications use the SysLZEnter syscall.
func (lz *LightZone) EnterProcess(k *kernel.Kernel, p *kernel.Process, allowScalable bool, policy SanPolicy) (*LZProc, error) {
	if _, err := lz.enter(k, p.MainThread(), allowScalable, policy); err != nil {
		return nil, err
	}
	lp, ok := p.LZ.(*LZProc)
	if !ok {
		return nil, fmt.Errorf("enter failed for pid %d", p.PID)
	}
	return lp, nil
}
