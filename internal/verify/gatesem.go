package verify

import (
	"fmt"

	"lightzone/internal/arm64"
	"lightzone/internal/arm64/absint"
	"lightzone/internal/core"
	"lightzone/internal/mem"
)

// checkGateSemantics is the semantic gate proof (§6.2 strengthened): it
// symbolically executes every installed gate slot from every instruction
// offset — the attacker chooses the entry point, not the gate author — and
// proves, on every feasible path, that
//
//   - a path that installs a TTBR0 can only exit through RET, with the
//     installed value proven equal to the target page table's registered
//     base and the return target proven equal to the registered entry;
//   - PAN leaves every exit at its entry value;
//   - no memory write, no system-register write other than TTBR0_EL1, no
//     SPSel write and no TLBI/cache-maintenance op lies on any feasible path.
//
// Unlike the structural audit this accepts any instruction sequence with
// these properties, and rejects byte-plausible gates that lack them: the
// load-bearing check is the proof, not byte identity. The only facts
// admitted from memory are 8-byte reads of the gate's own GateTab entry and
// the TTBRTab, and only while those are mapped read-only and non-user in
// TTBR1 — everything else the gate may read is attacker-controlled ⊤.
//
// Exits that trap to a handler (HVC/SVC/SMC, zero words, running into the
// zero tail) are semantically benign here — they fault closed before any
// unproven state becomes architecturally visible; the structural audit owns
// immediate discipline. Exploration budgets fail closed as findings.
func checkGateSemantics(s *Snapshot) []Finding {
	var out []Finding
	for pi := range s.Procs {
		p := &s.Procs[pi]
		domains := make(map[int]*DomainSnap)
		for di := range p.Domains {
			domains[p.Domains[di].ID] = &p.Domains[di]
		}
		for _, g := range p.Gates {
			for _, f := range gateSemantics(s, p, g, domains) {
				f.Checker = "gate-semantics"
				f.PID = p.PID
				f.Proc = p.Name
				f.Domain = -1
				out = append(out, f)
			}
		}
	}
	return out
}

// gateSemantics proves one gate slot, returning finding templates (Checker,
// PID, Proc and Domain are stamped by the caller — templates must stay
// process-agnostic so the memo can share them).
func gateSemantics(s *Snapshot, p *ProcSnap, g core.GateInfo, domains map[int]*DomainSnap) []Finding {
	slotVA := core.GateCodeBase() + uint64(g.ID)*core.GateSlotLen
	slotPA, ok := ttbr1Real(p, slotVA)
	if !ok {
		return []Finding{{VA: slotVA,
			Detail: fmt.Sprintf("gate %d: slot not mapped in TTBR1; nothing to prove", g.ID)}}
	}
	raw := make([]byte, core.GateSlotLen)
	if err := s.M.PM.Read(slotPA, raw); err != nil {
		return []Finding{{VA: slotVA, PA: uint64(slotPA),
			Detail: fmt.Sprintf("gate %d: slot unreadable: %v", g.ID, err)}}
	}
	words := arm64.BytesToWords(raw)
	extent := len(words)
	for extent > 0 && words[extent-1] == 0 {
		extent--
	}
	if extent == 0 {
		// An empty slot faults closed at every entry; the structural audit
		// reports the missing switch/RET.
		return nil
	}

	want, haveDomain := uint64(0), false
	if d, ok := domains[g.PGTID]; ok {
		want, haveDomain = d.TTBR, true
	}
	o := &gateOracle{
		s: s, p: p,
		gateTabLo: core.GateTabBase() + uint64(g.ID)*16,
		ttbrTabLo: core.TTBRTabBase(),
		ttbrTabHi: core.TTBRTabBase() + uint64(len(p.TTBRTabPAs))*mem.PageSize,
	}
	return s.memo.proveGate(o, g, slotVA, words[:extent], extent == len(words), want, haveDomain)
}

// gateProof is one memoised gate proof: its finding templates and every
// oracle query the exploration made, with the answer it got.
type gateProof struct {
	reads    []oracleRead
	findings []Finding
}

type oracleRead struct {
	va   uint64
	size int
	v    uint64
	ok   bool
}

// holds reports whether every recorded oracle query, asked again through o,
// gets the answer the proof saw. Explore is deterministic, so with the other
// inputs equal (the cache key) it then asks the same queries in the same
// order and builds the same proof.
func (pr *gateProof) holds(o absint.MemOracle) bool {
	for _, rd := range pr.reads {
		if v, ok := o.ReadConst(rd.va, rd.size); v != rd.v || ok != rd.ok {
			return false
		}
	}
	return true
}

// recordingOracle passes queries through to the gate's oracle and records
// each distinct one with its answer.
type recordingOracle struct {
	o     absint.MemOracle
	reads []oracleRead
}

func (r *recordingOracle) ReadConst(va uint64, size int) (uint64, bool) {
	v, ok := r.o.ReadConst(va, size)
	for _, rd := range r.reads {
		if rd.va == va && rd.size == size {
			return v, ok
		}
	}
	r.reads = append(r.reads, oracleRead{va: va, size: size, v: v, ok: ok})
	return v, ok
}

// proveGate returns the proof of one gate slot, reusing the memoised proof
// when every input except the oracle's answers is equal (the key: slot
// address and trimmed words, full-slot flag, gate registration, expected
// table, and the oracle's GateTab/TTBRTab windows) and the recorded oracle
// queries still get the same answers.
func (mo *Memo) proveGate(o *gateOracle, g core.GateInfo, slotVA uint64,
	words []uint32, fullSlot bool, want uint64, haveDomain bool) []Finding {
	h := mo.hash()
	hashU64(h, slotVA)
	hashU64(h, uint64(len(words)))
	for _, w := range words {
		hashU64(h, uint64(w))
	}
	hashBool(h, fullSlot)
	hashU64(h, uint64(g.ID))
	hashU64(h, g.Entry)
	hashU64(h, uint64(g.PGTID))
	hashU64(h, want)
	hashBool(h, haveDomain)
	hashU64(h, o.gateTabLo)
	hashU64(h, o.ttbrTabLo)
	hashU64(h, o.ttbrTabHi)
	key := h.Sum64()
	if pr, ok := mo.gates.get(key); ok && pr.holds(o) {
		return pr.findings
	}
	mo.gateProofs++
	rec := &recordingOracle{o: o}
	fs := proveGateSlot(rec, g, slotVA, words, fullSlot, want, haveDomain)
	mo.gates.put(key, &gateProof{reads: rec.reads, findings: fs})
	return fs
}

// proveGateSlot runs the exploration from every instruction offset and
// applies the per-path rules. Findings are deduplicated on (VA, Detail):
// most violations are reachable from many entries but have one culprit
// instruction.
func proveGateSlot(oracle absint.MemOracle, g core.GateInfo, slotVA uint64,
	words []uint32, fullSlot bool, want uint64, haveDomain bool) []Finding {
	insns := make([]arm64.Insn, len(words))
	for i, w := range words {
		insns[i] = arm64.Decode(w)
	}
	rg := absint.Region{Base: slotVA, Insns: insns, Raw: words}
	cfg := absint.Config{Oracle: oracle}
	var fs []Finding
	type vaDetail struct {
		va     uint64
		detail string
	}
	seen := make(map[vaDetail]bool)
	emit := func(va uint64, detail string) {
		d := fmt.Sprintf("gate %d: %s", g.ID, detail)
		if seen[vaDetail{va, d}] {
			return
		}
		seen[vaDetail{va, d}] = true
		f := Finding{VA: va, Detail: d}
		if i := int(va-slotVA) / arm64.InsnBytes; va >= slotVA && i < len(words) {
			f.Word = words[i]
			f.Disasm = arm64.Disassemble(words[i])
		}
		fs = append(fs, f)
	}

	for e := 0; e < len(words); e++ {
		entry := slotVA + uint64(e)*arm64.InsnBytes
		paths, complete := absint.Explore(rg, entry, cfg)
		if !complete {
			emit(entry, fmt.Sprintf("exploration budget exceeded from entry +%#x; gate not proven",
				uint64(e)*arm64.InsnBytes))
			continue
		}
		for _, pt := range paths {
			checkGatePath(pt, g, want, haveDomain, fullSlot, emit)
		}
	}
	return fs
}

// checkGatePath applies the semantic rules to one explored path.
func checkGatePath(pt *absint.Path, g core.GateInfo, want uint64, haveDomain, fullSlot bool,
	emit func(uint64, string)) {
	for _, eff := range pt.Effects {
		switch eff.Kind {
		case absint.EffMemWrite:
			emit(eff.PC, "memory write on an executable gate path")
		case absint.EffSys:
			emit(eff.PC, "TLBI/cache-maintenance op escapes the gate's proven set")
		case absint.EffSysRegWrite:
			if eff.Sys.Key() != arm64.TTBR0EL1.Enc().Key() {
				emit(eff.PC, "system-register write other than TTBR0_EL1 on an executable gate path")
			}
		case absint.EffPStateWrite:
			if eff.Sys.Op1 == arm64.PStateFieldSPSel1 && eff.Sys.Op2 == arm64.PStateFieldSPSel2 {
				emit(eff.PC, "SPSel write on an executable gate path")
			}
		}
	}

	ttbr, written, wva := pt.St.TTBR0()
	switch pt.Exit {
	case absint.ExitRET:
		if written {
			if v, ok := ttbr.IsConst(); !ok || ttbr.Taint || !haveDomain || v != want {
				if !haveDomain {
					emit(wva, fmt.Sprintf("TTBR0 switched but target page table %d is not registered", g.PGTID))
				} else {
					emit(wva, fmt.Sprintf("TTBR0 switched to a value not proven to be page table %d's base %#x (got %v)",
						g.PGTID, want, ttbr))
				}
			}
			if v, ok := pt.Target.IsConst(); !ok || pt.Target.Taint || v != g.Entry {
				emit(pt.ExitPC, fmt.Sprintf("exit target not proven to be the recorded return site %#x (got %v)",
					g.Entry, pt.Target))
			}
		}
		checkGatePAN(pt, emit)
	case absint.ExitBR:
		if written {
			emit(pt.ExitPC, "computed branch leaves the gate after the TTBR0 switch")
		}
		checkGatePAN(pt, emit)
	case absint.ExitBranchOut:
		if written {
			emit(pt.ExitPC, "direct branch leaves the gate slot after the TTBR0 switch")
		}
		checkGatePAN(pt, emit)
	case absint.ExitFallOff:
		if fullSlot {
			// With a zero tail the fall-off lands on a zero word and faults
			// closed; a full slot falls into the next gate's code.
			emit(pt.ExitPC, "execution runs off the end of a full gate slot")
		}
	case absint.ExitUndef:
		emit(pt.ExitPC, "reachable undecodable word inside the gate")
	}
	// ExitUndefZero, ExitHVC, ExitSVC, ExitSMC, ExitERET: trap before any
	// unproven state escapes the gate; nothing to prove on these paths.
}

// checkGatePAN enforces the PAN-restoration leg on one architecturally
// escaping exit. Applied regardless of the TTBR0 switch: entering mid-gate
// to toggle PAN and return is exactly the leak the paper's argument forbids.
func checkGatePAN(pt *absint.Path, emit func(uint64, string)) {
	if b, va := pt.St.PAN(); b != absint.BitEntry {
		emit(va, fmt.Sprintf("PAN not restored to its entry value on a gate exit path (left %v)", b))
	}
}

// gateOracle admits constant loads only from the gate's own GateTab entry
// and the TTBRTab, and only while the backing TTBR1 mapping is read-only and
// non-user — the preconditions under which those bytes are immutable to the
// process and the loaded constants deserve trust. Restricting the domain
// also keeps a proof's oracle reads few (the gate's GateTab entry and one
// TTBRTab slot), which is what lets the memo revalidate a proof cheaply.
type gateOracle struct {
	s         *Snapshot
	p         *ProcSnap
	gateTabLo uint64 // this gate's 16-byte GateTab entry
	ttbrTabLo uint64
	ttbrTabHi uint64
}

func (o *gateOracle) ReadConst(va uint64, size int) (uint64, bool) {
	if size != 8 {
		return 0, false
	}
	inGateTab := va >= o.gateTabLo && va+8 <= o.gateTabLo+16
	inTTBRTab := va >= o.ttbrTabLo && va+8 <= o.ttbrTabHi
	if !inGateTab && !inTTBRTab {
		return 0, false
	}
	return readTTBR1RO(o.s, o.p, va)
}

// readTTBR1RO reads 8 bytes behind a TTBR1 VA iff its mapping is present,
// read-only and kernel-only.
func readTTBR1RO(s *Snapshot, p *ProcSnap, va uint64) (uint64, bool) {
	res, err := p.TTBR1Table().Walk(mem.VA(va))
	if err != nil || !res.Found {
		return 0, false
	}
	if res.Desc&mem.AttrAPRO == 0 || res.Desc&mem.AttrAPUser != 0 {
		return 0, false
	}
	real, ok := p.RealOf(mem.IPA(res.Desc & mem.OAMask))
	if !ok {
		return 0, false
	}
	v, err := s.M.PM.ReadU64(real + mem.PA(va&mem.PageMask))
	if err != nil {
		return 0, false
	}
	return v, true
}
