package verify

import (
	"fmt"

	"lightzone/internal/core"
	"lightzone/internal/hyp"
	"lightzone/internal/mem"
)

// Mapping is one stage-1 leaf descriptor as the snapshot saw it.
type Mapping struct {
	VA   mem.VA
	Desc uint64 // raw stage-1 leaf; its OA is a fake physical address
	Size uint64 // mem.PageSize or mem.HugePageSize
	// Real is the real frame base behind the fake OA (what the bytes
	// actually live in). HasReal is false when the fake OA resolves to
	// nothing — itself reported by the W-xor-X audit.
	Real    mem.PA
	HasReal bool
}

// Exec reports whether the mapping is kernel-executable (PXN clear).
func (m Mapping) Exec() bool { return m.Desc&mem.AttrPXN == 0 }

// Writable reports whether the mapping permits writes (AP read-only clear).
func (m Mapping) Writable() bool { return m.Desc&mem.AttrAPRO == 0 }

// User reports whether the mapping is user-accessible (PAN-gated domains).
func (m Mapping) User() bool { return m.Desc&mem.AttrAPUser != 0 }

// DomainSnap is one domain page table: identity plus every leaf mapping in
// ascending VA order. S1 is retained for the cache-coherence re-walks (all
// Stage1 read paths are observation-only).
type DomainSnap struct {
	ID   int
	ASID uint16
	TTBR uint64
	S1   *mem.Stage1
	Maps []Mapping
}

// ProcSnap is the verifier's view of one LightZone process.
type ProcSnap struct {
	PID      int
	Name     string
	Policy   core.SanPolicy
	Scalable bool
	VMID     uint16

	Domains []DomainSnap

	// TTBR1 half: stub, gate code, GateTab, TTBRTab.
	TTBR1Val uint64
	TTBR1    []Mapping

	Gates      []core.GateInfo
	GateTabPA  mem.PA
	TTBRTabPAs []mem.PA
	ExecClean  []mem.VA

	// Backend names the isolation substrate the process entered with;
	// checker selection (CheckersFor) keys off it. The substrate-private
	// bookkeeping below feeds the overlay-key and granule-state audits
	// (nil for other backends).
	Backend       string
	OverlayKeys   []int          // granted overlay keys, ascending
	PageKeys      map[mem.VA]int // page base -> key the module tagged
	GranuleOwners map[mem.PA]int // real frame -> owning zone

	// LP gives checkers access to the live process for fake-physical
	// resolution, the TTBR1 table and stage-2 (read paths only).
	LP *core.LZProc
}

// TTBR1Table returns the process's TTBR1 stage-1 table.
func (p *ProcSnap) TTBR1Table() *mem.Stage1 { return p.LP.TTBR1Table() }

// S2 returns the process's stage-2 table.
func (p *ProcSnap) S2() *mem.Stage2 { return p.LP.VM().S2 }

// RealOf resolves a fake physical address to the real frame behind it.
func (p *ProcSnap) RealOf(fk mem.IPA) (mem.PA, bool) { return p.LP.Fake().RealOf(fk) }

// Snapshot is a point-in-time capture of a machine for invariant checking.
type Snapshot struct {
	M     *hyp.Machine
	LZ    *core.LightZone
	Procs []ProcSnap

	// memo is the caller's checker memo, installed by RunMemo for the
	// duration of one run; checkers run only through RunMemo.
	memo *Memo
}

// BackendName returns the isolation substrate the snapshot's processes run
// under (a module hosts one backend at a time; a machine with no LightZone
// processes audits under the default registry).
func (s *Snapshot) BackendName() string {
	if len(s.Procs) > 0 {
		return s.Procs[0].Backend
	}
	return "lightzone"
}

// Capture snapshots every LightZone process of (m, lz) for the checkers.
// The capture itself is observation-only: software table walks through
// PhysMem reads, no TLB probes, no cycle charges.
func Capture(m *hyp.Machine, lz *core.LightZone) (*Snapshot, error) {
	return capture(m, lz, nil)
}

// capture is Capture through mo's capture cache (none when mo is nil).
func capture(m *hyp.Machine, lz *core.LightZone, mo *Memo) (*Snapshot, error) {
	s := &Snapshot{M: m, LZ: lz}
	for _, lp := range lz.Procs() {
		ps := ProcSnap{
			PID:        lp.PID(),
			Name:       lp.Name(),
			Policy:     lp.Policy(),
			Scalable:   lp.AllowScalable(),
			VMID:       lp.VM().VMID,
			TTBR1Val:   lp.TTBR1Val(),
			Gates:      lp.Gates(),
			GateTabPA:  lp.GateTabPA(),
			TTBRTabPAs: lp.TTBRTabPages(),
			ExecClean:  lp.ExecCleanPages(),
			LP:         lp,

			Backend:       lp.BackendName(),
			OverlayKeys:   lp.OverlayGranted(),
			PageKeys:      lp.OverlayPageKeys(),
			GranuleOwners: lp.GranuleOwners(),
		}
		for _, id := range lp.PageTableIDs() {
			d, ok := lp.PageTable(id)
			if !ok {
				continue
			}
			ds := DomainSnap{ID: d.ID, ASID: d.S1.ASID(), TTBR: d.TTBR(), S1: d.S1}
			maps, err := mo.collectMaps(m.PM, d.S1, lp)
			if err != nil {
				return nil, fmt.Errorf("pid %d pgt %d: %w", ps.PID, id, err)
			}
			ds.Maps = maps
			ps.Domains = append(ps.Domains, ds)
		}
		t1maps, err := mo.collectMaps(m.PM, lp.TTBR1Table(), lp)
		if err != nil {
			return nil, fmt.Errorf("pid %d ttbr1: %w", ps.PID, err)
		}
		ps.TTBR1 = t1maps
		s.Procs = append(s.Procs, ps)
	}
	return s, nil
}

// collectMaps gathers every leaf of a stage-1 table, resolving each fake
// output address to its real frame.
func (mo *Memo) collectMaps(pm *mem.PhysMem, s1 *mem.Stage1, lp *core.LZProc) ([]Mapping, error) {
	maps, err := mo.leaves(pm, s1)
	if err != nil {
		return nil, err
	}
	for i := range maps {
		m := &maps[i]
		fk := mem.IPA(m.Desc & mem.OAMask)
		if m.Size == mem.HugePageSize {
			fk &^= mem.IPA(mem.HugePageMask)
		}
		m.Real, m.HasReal = lp.Fake().RealOf(fk)
	}
	return maps, nil
}
