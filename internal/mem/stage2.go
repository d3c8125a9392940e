package mem

import (
	"encoding/binary"
	"fmt"
)

// Stage2 is a 3-level stage-2 translation table, one per virtual machine,
// translating intermediate physical addresses to physical addresses. In
// LightZone, stage-2 tables restrict the memory a TTBR-mode kernel-mode
// process can reach even though it controls its own stage-1 translation
// (§5.1.2), and implement the fake-physical-address randomization layer.
type Stage2 struct {
	pm          *PhysMem
	root        PA
	vmid        uint16
	tableFrames int
}

// NewStage2 allocates an empty stage-2 table for the given VMID.
func NewStage2(pm *PhysMem, vmid uint16) (*Stage2, error) {
	root, err := pm.AllocFrame()
	if err != nil {
		return nil, fmt.Errorf("stage-2 root: %w", err)
	}
	return &Stage2{pm: pm, root: root, vmid: vmid, tableFrames: 1}, nil
}

// Root returns the table root (the VTTBR_EL2 base address field).
func (t *Stage2) Root() PA { return t.root }

// VMID returns the virtual machine identifier.
func (t *Stage2) VMID() uint16 { return t.vmid }

// TableBytes returns the memory consumed by stage-2 table frames.
func (t *Stage2) TableBytes() uint64 { return uint64(t.tableFrames) * PageSize }

func (t *Stage2) descAddr(table PA, idx uint64) PA { return table + PA(idx*8) }

func (t *Stage2) nextTable(table PA, idx uint64, alloc bool) (PA, error) {
	f, err := t.pm.frame(table)
	if err != nil {
		return 0, err
	}
	off := idx * 8
	desc := binary.LittleEndian.Uint64(f[off : off+8])
	if desc&DescValid != 0 {
		if desc&DescTable == 0 {
			return 0, fmt.Errorf("stage-2 descriptor at %v is a block", t.descAddr(table, idx))
		}
		return PA(desc & OAMask), nil
	}
	if !alloc {
		return 0, nil
	}
	next, err := t.pm.AllocFrame()
	if err != nil {
		return 0, err
	}
	t.tableFrames++
	binary.LittleEndian.PutUint64(f[off:off+8], uint64(next)|DescValid|DescTable)
	return next, nil
}

// Map installs a 4KB leaf mapping ipa -> pa with S2AP/S2XN attribute bits.
func (t *Stage2) Map(ipa IPA, pa PA, attrs uint64) error {
	if uint64(ipa)>>IPABits != 0 {
		return fmt.Errorf("IPA %v exceeds %d-bit space", ipa, IPABits)
	}
	table := t.root
	for level := 1; level < 3; level++ {
		next, err := t.nextTable(table, s2Index(ipa, level), true)
		if err != nil {
			return fmt.Errorf("map %v level %d: %w", ipa, level, err)
		}
		table = next
	}
	desc := uint64(pa)&OAMask | attrs | DescValid | DescTable | AttrAF
	return t.pm.WriteU64(t.descAddr(table, s2Index(ipa, 3)), desc)
}

// MapBlock installs a 2MB block mapping at level 2.
func (t *Stage2) MapBlock(ipa IPA, pa PA, attrs uint64) error {
	if uint64(ipa)&HugePageMask != 0 || uint64(pa)&HugePageMask != 0 {
		return fmt.Errorf("unaligned 2MB stage-2 mapping %v -> %v", ipa, pa)
	}
	next, err := t.nextTable(t.root, s2Index(ipa, 1), true)
	if err != nil {
		return err
	}
	desc := uint64(pa)&OAMask | attrs | DescValid | AttrAF
	return t.pm.WriteU64(t.descAddr(next, s2Index(ipa, 2)), desc)
}

// Walk performs a software walk for ipa.
func (t *Stage2) Walk(ipa IPA) (WalkResult, error) {
	res := WalkResult{BlockShift: PageShift}
	if uint64(ipa)>>IPABits != 0 {
		return res, nil
	}
	table := t.root
	for level := 1; level <= 3; level++ {
		res.Levels++
		res.Level = level
		f, err := t.pm.frame(table)
		if err != nil {
			return res, err
		}
		off := s2Index(ipa, level) * 8
		desc := binary.LittleEndian.Uint64(f[off : off+8])
		if desc&DescValid == 0 {
			return res, nil
		}
		if level == 3 {
			if desc&DescTable == 0 {
				return res, nil
			}
			res.Desc = desc
			res.Found = true
			res.PA = PA(desc&OAMask | uint64(ipa)&PageMask)
			return res, nil
		}
		if desc&DescTable == 0 {
			if level != 2 {
				return res, nil
			}
			res.Desc = desc
			res.Found = true
			res.BlockShift = HugePageShift
			res.PA = PA(desc&OAMask&^uint64(HugePageMask) | uint64(ipa)&HugePageMask)
			return res, nil
		}
		table = PA(desc & OAMask)
	}
	return res, nil
}

// Unmap removes the leaf mapping for ipa.
func (t *Stage2) Unmap(ipa IPA) (bool, error) {
	leaf, err := t.leafAddr(ipa)
	if err != nil || leaf == 0 {
		return false, err
	}
	desc, err := t.pm.ReadU64(leaf)
	if err != nil {
		return false, err
	}
	if desc&DescValid == 0 {
		return false, nil
	}
	return true, t.pm.WriteU64(leaf, 0)
}

// UpdateLeaf rewrites the leaf descriptor for ipa (see Stage1.UpdateLeaf).
func (t *Stage2) UpdateLeaf(ipa IPA, fn func(uint64) uint64) (bool, error) {
	leaf, err := t.leafAddr(ipa)
	if err != nil || leaf == 0 {
		return false, err
	}
	desc, err := t.pm.ReadU64(leaf)
	if err != nil {
		return false, err
	}
	if desc&DescValid == 0 {
		return false, nil
	}
	return true, t.pm.WriteU64(leaf, fn(desc))
}

func (t *Stage2) leafAddr(ipa IPA) (PA, error) {
	table := t.root
	for level := 1; level < 3; level++ {
		f, err := t.pm.frame(table)
		if err != nil {
			return 0, err
		}
		idx := s2Index(ipa, level)
		desc := binary.LittleEndian.Uint64(f[idx*8 : idx*8+8])
		if desc&DescValid == 0 {
			return 0, nil
		}
		if desc&DescTable == 0 {
			if level == 2 {
				return t.descAddr(table, idx), nil
			}
			return 0, nil
		}
		table = PA(desc & OAMask)
	}
	return t.descAddr(table, s2Index(ipa, 3)), nil
}

// Visit walks every valid leaf mapping in ascending IPA order, calling
// fn(ipa, desc, size). Visiting stops when fn returns false. Mirrors
// Stage1.Visit; verifiers use it to audit the stage-2 protections the
// Lowvisor installed over guest frames.
func (t *Stage2) Visit(fn func(ipa IPA, desc uint64, size uint64) bool) error {
	return t.visit(t.root, 1, 0, fn)
}

func (t *Stage2) visit(table PA, level int, base uint64, fn func(IPA, uint64, uint64) bool) error {
	f, err := t.pm.frame(table)
	if err != nil {
		return err
	}
	span := uint64(1) << (PageShift + 9*(3-level))
	for idx := uint64(0); idx < 512; idx++ {
		desc := binary.LittleEndian.Uint64(f[idx*8 : idx*8+8])
		if desc&DescValid == 0 {
			continue
		}
		ipa := base + idx*span
		switch {
		case level == 3:
			if !fn(IPA(ipa), desc, PageSize) {
				return nil
			}
		case desc&DescTable == 0:
			if level == 2 {
				if !fn(IPA(ipa), desc, HugePageSize) {
					return nil
				}
			}
		default:
			if err := t.visit(PA(desc&OAMask), level+1, ipa, fn); err != nil {
				return err
			}
		}
	}
	return nil
}

// Free releases the table frames.
func (t *Stage2) Free() {
	t.free(t.root, 1)
	t.root = 0
	t.tableFrames = 0
}

func (t *Stage2) free(table PA, level int) {
	if level < 3 {
		for idx := uint64(0); idx < 512; idx++ {
			desc, err := t.pm.ReadU64(t.descAddr(table, idx))
			if err != nil {
				continue
			}
			if desc&DescValid != 0 && desc&DescTable != 0 {
				t.free(PA(desc&OAMask), level+1)
			}
		}
	}
	t.pm.FreeFrame(table)
}
