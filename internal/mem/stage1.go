package mem

import "fmt"

// Stage1 is a 4-level stage-1 translation table (one per address space /
// LightZone memory domain), translating 48-bit virtual addresses.
type Stage1 struct {
	xlat
	asid uint16

	// OnAllocTable, when set, is invoked with the physical address of
	// every newly allocated table frame. The LightZone module uses it to
	// keep stage-1 table frames identity-mapped (read-only) in a
	// process's stage-2 table so hardware walks can fetch descriptors. An
	// error (the stage-2 table could not grow) fails the mapping that
	// needed the frame.
	OnAllocTable func(PA) error
}

// NewStage1 allocates an empty stage-1 table.
func NewStage1(pm *PhysMem, asid uint16) (*Stage1, error) {
	root, err := pm.AllocFrame()
	if err != nil {
		return nil, fmt.Errorf("stage-1 root: %w", err)
	}
	return &Stage1{xlat: xlat{pm: pm, root: root, tableFrames: 1}, asid: asid}, nil
}

// ViewStage1 wraps an existing stage-1 table root (e.g. read from a TTBR)
// for walking. The view shares the underlying tables; mapping through a
// view is permitted, but TableBytes only counts frames allocated via it.
func ViewStage1(pm *PhysMem, root PA) *Stage1 {
	return &Stage1{xlat: xlat{pm: pm, root: root}}
}

// ASID returns the address space identifier associated with the table.
// LightZone assigns each domain page table its own ASID so that TTBR
// switches need no TLB invalidation (§4.1.2).
func (t *Stage1) ASID() uint16 { return t.asid }

// in is the range check every entry point applies: only canonical VAs
// (upper 16 bits all equal) translate.
func (t *Stage1) in(va VA) error {
	if !ValidVA(va) {
		return fmt.Errorf("non-canonical %v", va)
	}
	return nil
}

// Map installs a 4KB leaf mapping va -> pa with the given attribute bits
// (AttrAPUser, AttrAPRO, AttrPXN, ...). Valid/table/AF bits are supplied.
func (t *Stage1) Map(va VA, pa PA, attrs uint64) error {
	if err := t.in(va); err != nil {
		return err
	}
	return t.mapPage(uint64(va), pa, attrs, t.OnAllocTable)
}

// MapBlock installs a 2MB block mapping at level 2 (huge pages, §9.3).
func (t *Stage1) MapBlock(va VA, pa PA, attrs uint64) error {
	if err := t.in(va); err != nil {
		return err
	}
	return t.mapBlock(uint64(va), pa, attrs, t.OnAllocTable)
}

// Walk performs a software walk of the table for va. A non-canonical va
// is not found, after no descriptor fetch.
func (t *Stage1) Walk(va VA) (WalkResult, error) {
	if t.in(va) != nil {
		return WalkResult{BlockShift: PageShift}, nil
	}
	return t.walk(uint64(va))
}

// Unmap removes the leaf mapping for va, returning whether one existed.
// Table frames are not eagerly reclaimed (as in Linux).
func (t *Stage1) Unmap(va VA) (bool, error) {
	return t.UpdateLeaf(va, func(uint64) uint64 { return 0 })
}

// UpdateLeaf atomically rewrites the leaf descriptor for va. The update
// function receives the current descriptor and returns the replacement.
// It reports whether a valid leaf existed.
func (t *Stage1) UpdateLeaf(va VA, fn func(uint64) uint64) (bool, error) {
	if err := t.in(va); err != nil {
		return false, err
	}
	return t.update(uint64(va), fn)
}

// Visit walks every valid leaf mapping in ascending VA order, calling
// fn(va, desc, size) with TTBR1-half addresses in canonical form. The
// LightZone module uses it to duplicate the kernel-managed table at
// lz_enter (§5.1.2); the verifiers use it to snapshot tables. Visiting
// stops when fn returns false.
func (t *Stage1) Visit(fn func(va VA, desc uint64, size uint64) bool) error {
	return t.visit(func(addr, desc, size uint64) bool { return fn(VA(addr), desc, size) })
}

// CopyLeaves copies into t every leaf mapping of src (4KB pages and 2MB
// blocks) whose descriptor has none of the skip bits set, with the same
// output address and attributes — the lz_alloc duplication of the base
// table (§6.1). Frames, contents and OnAllocTable calls are exactly those
// of a Map (or MapBlock) per copied leaf in Visit order; it returns the
// number of leaves copied, the failing one included (see xlat.copyLeaves).
func (t *Stage1) CopyLeaves(src *Stage1, skip uint64) (int, error) {
	return t.copyLeaves(&src.xlat, skip, t.OnAllocTable)
}
