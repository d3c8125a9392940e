package core

import (
	"fmt"
	"sort"

	"lightzone/internal/arm64"
	"lightzone/internal/mem"
)

// Hypervisor-call immediates used by the LightZone user-space API library
// and the trap stub.
const (
	// HVCSyscall is the API library's syscall fast path: arguments in
	// x0..x5, number in x8, a single HVC straight to the kernel module
	// (no EL1 self-trap).
	HVCSyscall = 0x4C00
	// HVCForwardSync is issued by the VBAR_EL1 trap stub to forward an
	// exception (raw SVC, stage-1 page fault, undefined instruction)
	// that hardware delivered to the process's own kernel mode.
	HVCForwardSync = 0x4C01
	// HVCForwardIRQ forwards an interrupt.
	HVCForwardIRQ = 0x4C02
	// HVCViolation reports a failed call-gate check (illegal TTBR0 or
	// entry); the module terminates the process.
	HVCViolation = 0x4C03
)

// gateVA returns the TTBR1 virtual address of gate i's code block.
func gateVA(i int) uint64 { return uint64(gateCodeVA) + uint64(i)*gateSlotLen }

// gateTabEntryVA returns the TTBR1 VA of GateTab[i] (16 bytes per entry).
func gateTabEntryVA(i int) uint64 { return uint64(gateTabVA) + uint64(i)*16 }

// MaxGates bounds call-gate identifiers. One GateTab page holds 256
// entries; gates and their code pages are allocated on registration.
const MaxGates = 1024

// buildGateCode assembles the secure call gate for a specific gate id
// (Figure 2). The gate is TTBR1-mapped so its integrity does not depend on
// the attacker-influenced TTBR0. Phase ① looks up GateTab/TTBRTab and
// installs the new TTBR0; phase ② re-queries both tables and compares the
// in-register TTBR0 and link register against them, catching arbitrary
// updates, then returns through an indirect jump to the validated entry.
func buildGateCode(gateID int) ([]uint32, error) {
	if gateID < 0 || gateID >= MaxGates {
		return nil, fmt.Errorf("gate id %d out of range [0, %d)", gateID, MaxGates)
	}
	a := arm64.NewAsm()
	base := gateVA(gateID)
	// adrTo emits ADR rd, <absolute target> using the gate's fixed
	// load address (gates live at fixed TTBR1 addresses).
	adrTo := func(rd uint8, target uint64) {
		a.Emit(arm64.ADR(rd, int64(target)-int64(base)-int64(a.Len())))
	}
	// ① switch phase
	adrTo(16, gateTabEntryVA(gateID))       // x16 = &GateTab[gateID]
	a.Emit(arm64.LDRImm(17, 16, 8, 3))      // x17 = PGTID
	adrTo(18, uint64(ttbrTabVA))            // x18 = TTBRTab base
	a.Emit(arm64.ADDShifted(18, 18, 17, 3)) // x18 = &TTBRTab[PGTID]
	a.Emit(arm64.LDRImm(17, 18, 0, 3))      // x17 = new TTBR0
	a.Emit(arm64.MSR(arm64.TTBR0EL1, 17))
	a.Emit(arm64.WordISB)
	// ② check phase: no indirect jump between MSR and RET, so the check
	// always executes once TTBR0 changed. Every address used below is
	// re-materialized PC-relatively from the gate's own (TTBR1-protected)
	// code — an attacker who jumps into the middle of the gate with
	// crafted registers cannot redirect the re-queries to memory it
	// controls (the gate id is a constant, so its range is validated at
	// gate-construction time).
	adrTo(16, gateTabEntryVA(gateID))  // requery GateTab from scratch
	a.Emit(arm64.LDRImm(19, 16, 0, 3)) // re-read ENTRY
	a.Emit(arm64.CMPReg(30, 19))       // link register must be the entry
	a.BCond(arm64.CondNE, "fail")
	a.Emit(arm64.LDRImm(17, 16, 8, 3))      // re-read PGTID
	adrTo(18, uint64(ttbrTabVA))            // rebuild &TTBRTab[PGTID]
	a.Emit(arm64.ADDShifted(18, 18, 17, 3)) // &TTBRTab[PGTID]
	a.Emit(arm64.MRS(19, arm64.TTBR0EL1))   // in-register TTBR0
	a.Emit(arm64.LDRImm(20, 18, 0, 3))      // re-read TTBRTab[PGTID]
	a.Emit(arm64.CMPReg(19, 20))
	a.BCond(arm64.CondNE, "fail")
	a.Emit(arm64.RET(30))
	a.Label("fail")
	a.Emit(arm64.HVC(HVCViolation))
	words, err := a.Assemble()
	if err != nil {
		return nil, err
	}
	if len(words)*arm64.InsnBytes > gateSlotLen {
		return nil, fmt.Errorf("gate code exceeds slot: %d bytes", len(words)*arm64.InsnBytes)
	}
	return words, nil
}

// EmitGateSwitch expands the lz_switch_to_ttbr_gate(gate) macro into an
// application program: load the gate address, set the link register to the
// legitimate entry (the address immediately after the macro), and jump to
// the gate. label must be unique within the assembly. It returns the label
// whose resolved address is the gate's ENTRY, to be registered in GateTab.
func EmitGateSwitch(a *arm64.Asm, gateID int, label string) string {
	entry := "lz_entry_" + label
	a.MovImm(17, gateVA(gateID))
	a.ADR(30, entry)
	a.Emit(arm64.BR(17))
	a.Label(entry)
	return entry
}

// EmitSetPAN expands set_pan(v) (Listing 1): a single MSR PAN immediate.
func EmitSetPAN(a *arm64.Asm, v uint8) {
	a.Emit(arm64.MSRPan(v))
}

// installGates writes the gate code blocks and GateTab for the registered
// entries, and maps the stub/gate/table pages into the process's TTBR1
// table. Called from lz_enter.
func (lp *LZProc) installGates() error {
	pm := lp.kern.PM

	// GateTab page (256 entries suffice per page; allocate enough pages
	// for the registered ids).
	maxID := 0
	for id := range lp.gateEntries {
		if id > maxID {
			maxID = id
		}
	}
	if maxID >= MaxGates {
		return fmt.Errorf("gate id %d exceeds MaxGates", maxID)
	}
	gateTabPages := maxID*16/mem.PageSize + 1
	gateCodePages := maxID*gateSlotLen/mem.PageSize + 1

	first := true
	for pg := 0; pg < gateTabPages; pg++ {
		pa, err := pm.AllocFrame()
		if err != nil {
			return err
		}
		if first {
			lp.gateTabPA = pa
			first = false
		}
		if err := lp.mapTTBR1Page(gateTabVA+mem.VA(pg*mem.PageSize), pa, mem.AttrAPRO|mem.AttrPXN|mem.AttrUXN); err != nil {
			return err
		}
	}
	first = true
	for pg := 0; pg < gateCodePages; pg++ {
		pa, err := pm.AllocFrame()
		if err != nil {
			return err
		}
		if first {
			lp.gateCode = pa
			first = false
		}
		lp.gatePages++
		if err := lp.mapTTBR1Page(gateCodeVA+mem.VA(pg*mem.PageSize), pa, mem.AttrAPRO|mem.AttrUXN); err != nil {
			return err
		}
	}

	for id, entry := range lp.gateEntries {
		words, err := buildGateCode(id)
		if err != nil {
			return err
		}
		off := mem.PA(id * gateSlotLen)
		if err := pm.Write(lp.gateCode+off, arm64.WordsToBytes(words)); err != nil {
			return err
		}
		if err := pm.WriteU64(lp.gateTabPA+mem.PA(id*16), entry); err != nil {
			return err
		}
		// PGTID defaults to 0 (the base table) until lz_map_gate_pgt.
		if err := pm.WriteU64(lp.gateTabPA+mem.PA(id*16+8), 0); err != nil {
			return err
		}
	}
	return nil
}

// MapGatePgt implements lz_map_gate_pgt (Table 2): associate a call gate
// with the stage-1 page table it switches to.
func (lp *LZProc) MapGatePgt(pgt, gate int) error {
	if _, ok := lp.gateEntries[gate]; !ok {
		return fmt.Errorf("lz_map_gate_pgt: gate %d not registered", gate)
	}
	d, ok := lp.pgts[pgt]
	if !ok {
		return fmt.Errorf("lz_map_gate_pgt: no page table %d", pgt)
	}
	lp.gatePgt[gate] = pgt
	if err := lp.kern.PM.WriteU64(lp.gateTabPA+mem.PA(gate*16+8), uint64(pgt)); err != nil {
		return err
	}
	// Make sure TTBRTab carries the table's TTBR value.
	if err := lp.writeTTBRTab(pgt, d.TTBR()); err != nil {
		return err
	}
	// The gate code bytes are unchanged but the tables they consult are
	// not; drop any cached decode of the slot so the remap is never served
	// from pre-remap pipeline state (host cache only, no TLB effect).
	lp.kern.CPU.InvalidateCode(mem.VA(gateVA(gate)))
	lp.traceCodeInval(mem.VA(gateVA(gate)), "lz_map_gate_pgt remap")
	lp.kern.CPU.Charge(2 * lp.kern.Prof.MemAccessCost)
	lp.lz.observe("lz_map_gate_pgt", lp)
	return nil
}

// writeTTBRTab stores the TTBR value for a page-table id, allocating and
// mapping TTBRTab pages on demand (512 ids per page; the 2^16 id space
// spans 128 pages, allocated sparsely). Ids outside [0, MaxPageTables) are
// rejected outright: the table's TTBR1 window is exactly 512KB, and an id
// past it would silently map frames over whatever the layout places next —
// the failure mode of the pre-free-list monotonic id allocator.
func (lp *LZProc) writeTTBRTab(pgtID int, ttbr uint64) error {
	if pgtID < 0 || pgtID >= MaxPageTables {
		return fmt.Errorf("ttbrtab: page-table id %d outside the %d-entry window", pgtID, MaxPageTables)
	}
	page := pgtID / 512
	for len(lp.ttbrTabPA) <= page {
		pa, err := lp.kern.PM.AllocFrame()
		if err != nil {
			return err
		}
		idx := len(lp.ttbrTabPA)
		if err := lp.mapTTBR1Page(ttbrTabVA+mem.VA(idx*mem.PageSize), pa, mem.AttrAPRO|mem.AttrPXN|mem.AttrUXN); err != nil {
			return err
		}
		lp.ttbrTabPA = append(lp.ttbrTabPA, pa)
	}
	return lp.kern.PM.WriteU64(lp.ttbrTabPA[page]+mem.PA(pgtID%512*8), ttbr)
}

// mapTTBR1Page maps a kernel-owned page into the process's TTBR1 table
// (global mapping) and exposes it through stage-2. The attribute set keeps
// these pages read-only to the process; only the gate code page is
// executable.
func (lp *LZProc) mapTTBR1Page(va mem.VA, pa mem.PA, attrs uint64) error {
	fk := lp.fake.FakeOf(pa)
	if err := lp.ttbr1.Map(va, mem.PA(fk), attrs); err != nil {
		return err
	}
	// Read-only at stage-2: the process must never write gate state.
	return lp.vm.S2.Map(fk, pa, mem.S2APRead)
}

// GateCodeBase returns the virtual address of gate slot 0; generated
// programs compute gate addresses as GateCodeBase() + id*GateSlotLen.
func GateCodeBase() uint64 { return uint64(gateCodeVA) }

// GateSlotLen is the byte size of one call-gate slot.
const GateSlotLen = gateSlotLen

// Gates returns the registered call gates in id order (observation-only;
// lives here because gate state is confined to this file).
func (lp *LZProc) Gates() []GateInfo {
	out := make([]GateInfo, 0, len(lp.gateEntries))
	for id, entry := range lp.gateEntries {
		out = append(out, GateInfo{ID: id, Entry: entry, PGTID: lp.gatePgt[id]})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// GateTabPA returns the physical base of the first GateTab page.
func (lp *LZProc) GateTabPA() mem.PA { return lp.gateTabPA }

// GateCodePA returns the physical base of the first gate code page.
func (lp *LZProc) GateCodePA() mem.PA { return lp.gateCode }

// TTBRTabPages returns the physical frames backing TTBRTab, in page order.
func (lp *LZProc) TTBRTabPages() []mem.PA {
	out := make([]mem.PA, len(lp.ttbrTabPA))
	copy(out, lp.ttbrTabPA)
	return out
}

// GateListing disassembles the generated call gate for a gate id — the
// security-critical code sequence of §6.2, for inspection and debugging.
func GateListing(gateID int) (string, error) {
	words, err := buildGateCode(gateID)
	if err != nil {
		return "", err
	}
	return arm64.DisassembleAll(words), nil
}
