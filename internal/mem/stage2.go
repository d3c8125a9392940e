package mem

import "fmt"

// Stage2 is a 3-level stage-2 translation table, one per virtual machine,
// translating 39-bit intermediate physical addresses to physical
// addresses. In LightZone, stage-2 tables restrict the memory a TTBR-mode
// kernel-mode process can reach even though it controls its own stage-1
// translation (§5.1.2), and implement the fake-physical-address
// randomization layer.
type Stage2 struct {
	xlat
	vmid uint16
}

// NewStage2 allocates an empty stage-2 table for the given VMID.
func NewStage2(pm *PhysMem, vmid uint16) (*Stage2, error) {
	root, err := pm.AllocFrame()
	if err != nil {
		return nil, fmt.Errorf("stage-2 root: %w", err)
	}
	return &Stage2{xlat: xlat{pm: pm, root: root, start: 1, tableFrames: 1}, vmid: vmid}, nil
}

// ViewStage2 wraps an existing stage-2 table root (e.g. read from
// VTTBR_EL2) for walking.
func ViewStage2(pm *PhysMem, root PA) *Stage2 {
	return &Stage2{xlat: xlat{pm: pm, root: root, start: 1}}
}

// VMID returns the virtual machine identifier.
func (t *Stage2) VMID() uint16 { return t.vmid }

// in is the range check every entry point applies: the IPA must fit the
// 39-bit input space.
func (t *Stage2) in(ipa IPA) error {
	if uint64(ipa)>>IPABits != 0 {
		return fmt.Errorf("IPA %v exceeds %d-bit space", ipa, IPABits)
	}
	return nil
}

// Map installs a 4KB leaf mapping ipa -> pa with S2AP/S2XN attribute bits.
func (t *Stage2) Map(ipa IPA, pa PA, attrs uint64) error {
	if err := t.in(ipa); err != nil {
		return err
	}
	return t.mapPage(uint64(ipa), pa, attrs, nil)
}

// MapBlock installs a 2MB block mapping at level 2.
func (t *Stage2) MapBlock(ipa IPA, pa PA, attrs uint64) error {
	if err := t.in(ipa); err != nil {
		return err
	}
	return t.mapBlock(uint64(ipa), pa, attrs, nil)
}

// Walk performs a software walk for ipa. An out-of-range ipa is not found,
// after no descriptor fetch.
func (t *Stage2) Walk(ipa IPA) (WalkResult, error) {
	if t.in(ipa) != nil {
		return WalkResult{BlockShift: PageShift}, nil
	}
	return t.walk(uint64(ipa))
}

// Unmap removes the leaf mapping for ipa, returning whether one existed.
func (t *Stage2) Unmap(ipa IPA) (bool, error) {
	return t.UpdateLeaf(ipa, func(uint64) uint64 { return 0 })
}

// UpdateLeaf rewrites the leaf descriptor for ipa (see Stage1.UpdateLeaf).
func (t *Stage2) UpdateLeaf(ipa IPA, fn func(uint64) uint64) (bool, error) {
	if err := t.in(ipa); err != nil {
		return false, err
	}
	return t.update(uint64(ipa), fn)
}

// Visit walks every valid leaf mapping in ascending IPA order, calling
// fn(ipa, desc, size). Visiting stops when fn returns false. Verifiers use
// it to audit the stage-2 protections the Lowvisor installed over guest
// frames.
func (t *Stage2) Visit(fn func(ipa IPA, desc uint64, size uint64) bool) error {
	return t.visit(nil, func(addr, desc, size uint64) bool { return fn(IPA(addr), desc, size) })
}
