package mem

import (
	"encoding/binary"
	"fmt"
)

// WalkResult is the outcome of a page-table walk.
type WalkResult struct {
	// Desc is the leaf descriptor found (0 when !Found).
	Desc uint64
	// Level is the level at which the walk ended (leaf level, or the
	// level whose descriptor was invalid).
	Level int
	// Levels is the number of descriptor fetches performed; the CPU
	// charges TLB-walk cost per fetch.
	Levels int
	// Found reports whether a valid leaf was reached.
	Found bool
	// PA is the translated output address (leaf OA plus page offset).
	PA PA
	// BlockShift is log2 of the mapping size (12 for pages, 21 for 2MB
	// blocks).
	BlockShift uint
}

// Stage1 is a 4-level stage-1 translation table (one per address space /
// LightZone memory domain).
type Stage1 struct {
	pm          *PhysMem
	root        PA
	asid        uint16
	tableFrames int

	// lastLeafVA/lastLeafTable cache the level-3 table of the most
	// recently mapped 2MB region: callers that Map ascending VAs
	// (lz_enter's duplication of the kernel table, EnsureMapped) skip the
	// three-level descent on consecutive calls. Leaf tables are never
	// reclaimed until Free, so the cache only needs invalidation there,
	// in MapBlock (which may overwrite a level-2 table slot with a block)
	// and in CopyLeaves (which fills leaf tables without going through
	// Map).
	lastLeafVA    uint64
	lastLeafTable PA

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
	return &Stage1{pm: pm, root: root, asid: asid, tableFrames: 1}, nil
}

// Root returns the physical address of the root table (the TTBR value).
func (t *Stage1) Root() PA { return t.root }

// ASID returns the address space identifier associated with the table.
// LightZone assigns each domain page table its own ASID so that TTBR
// switches need no TLB invalidation (§4.1.2).
func (t *Stage1) ASID() uint16 { return t.asid }

// TableBytes returns the memory consumed by table frames — the paper's
// page-table memory overhead metric (§9.1-§9.3).
func (t *Stage1) TableBytes() uint64 { return uint64(t.tableFrames) * PageSize }

func (t *Stage1) descAddr(table PA, idx uint64) PA { return table + PA(idx*8) }

// nextTable returns the table pointed to by the descriptor at (table, idx),
// allocating it when absent and alloc is true. Table frames are page-aligned,
// so the descriptor is read through the frame directly.
func (t *Stage1) nextTable(table PA, idx uint64, alloc bool) (PA, error) {
	f, err := t.pm.frame(table)
	if err != nil {
		return 0, err
	}
	off := idx * 8
	desc := binary.LittleEndian.Uint64(f[off : off+8])
	if desc&DescValid != 0 {
		if desc&DescTable == 0 {
			return 0, fmt.Errorf("descriptor at %v is a block, not a table", t.descAddr(table, idx))
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
	if t.OnAllocTable != nil {
		if err := t.OnAllocTable(next); err != nil {
			return 0, err
		}
	}
	return next, nil
}

// Map installs a 4KB leaf mapping va -> pa with the given attribute bits
// (AttrAPUser, AttrAPRO, AttrPXN, ...). Valid/table/AF bits are supplied.
func (t *Stage1) Map(va VA, pa PA, attrs uint64) error {
	if !ValidVA(va) {
		return fmt.Errorf("non-canonical %v", va)
	}
	table := t.lastLeafTable
	if table == 0 || uint64(va)>>HugePageShift != t.lastLeafVA {
		table = t.root
		for level := 0; level < 3; level++ {
			next, err := t.nextTable(table, s1Index(va, level), true)
			if err != nil {
				return fmt.Errorf("map %v level %d: %w", va, level, err)
			}
			table = next
		}
		t.lastLeafVA = uint64(va) >> HugePageShift
		t.lastLeafTable = table
	}
	desc := uint64(pa)&OAMask | attrs | DescValid | DescTable | AttrAF
	return t.pm.WriteU64(t.descAddr(table, s1Index(va, 3)), desc)
}

// MapBlock installs a 2MB block mapping at level 2 (huge pages, §9.3).
func (t *Stage1) MapBlock(va VA, pa PA, attrs uint64) error {
	if uint64(va)&HugePageMask != 0 || uint64(pa)&HugePageMask != 0 {
		return fmt.Errorf("unaligned 2MB mapping %v -> %v", va, pa)
	}
	t.lastLeafTable = 0
	table := t.root
	for level := 0; level < 2; level++ {
		next, err := t.nextTable(table, s1Index(va, level), true)
		if err != nil {
			return fmt.Errorf("map block %v level %d: %w", va, level, err)
		}
		table = next
	}
	desc := uint64(pa)&OAMask | attrs | DescValid | AttrAF // no DescTable: block
	return t.pm.WriteU64(t.descAddr(table, s1Index(va, 2)), desc)
}

// Walk performs a software walk of the table for va.
func (t *Stage1) Walk(va VA) (WalkResult, error) {
	res := WalkResult{BlockShift: PageShift}
	if !ValidVA(va) {
		return res, nil
	}
	table := t.root
	for level := 0; level <= 3; level++ {
		res.Levels++
		res.Level = level
		f, err := t.pm.frame(table)
		if err != nil {
			return res, err
		}
		off := s1Index(va, level) * 8
		desc := binary.LittleEndian.Uint64(f[off : off+8])
		if desc&DescValid == 0 {
			return res, nil
		}
		if level == 3 {
			if desc&DescTable == 0 {
				return res, nil // reserved encoding
			}
			res.Desc = desc
			res.Found = true
			res.PA = PA(desc&OAMask | uint64(va)&PageMask)
			return res, nil
		}
		if desc&DescTable == 0 {
			if level != 2 {
				return res, nil // blocks only modelled at level 2
			}
			res.Desc = desc
			res.Found = true
			res.BlockShift = HugePageShift
			res.PA = PA(desc&OAMask&^uint64(HugePageMask) | uint64(va)&HugePageMask)
			return res, nil
		}
		table = PA(desc & OAMask)
	}
	return res, nil
}

// Unmap removes the leaf mapping for va, returning whether one existed.
// Table frames are not eagerly reclaimed (as in Linux).
func (t *Stage1) Unmap(va VA) (bool, error) {
	leaf, err := t.leafAddr(va)
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

// UpdateLeaf atomically rewrites the leaf descriptor for va. The update
// function receives the current descriptor (0 if unmapped) and returns the
// replacement. It reports whether a valid leaf existed.
func (t *Stage1) UpdateLeaf(va VA, fn func(uint64) uint64) (bool, error) {
	leaf, err := t.leafAddr(va)
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

// leafAddr resolves the physical address of the descriptor slot that maps
// va (page or 2MB block), or 0 when intermediate tables are absent.
func (t *Stage1) leafAddr(va VA) (PA, error) {
	table := t.root
	for level := 0; level < 3; level++ {
		f, err := t.pm.frame(table)
		if err != nil {
			return 0, err
		}
		idx := s1Index(va, level)
		desc := binary.LittleEndian.Uint64(f[idx*8 : idx*8+8])
		if desc&DescValid == 0 {
			return 0, nil
		}
		if desc&DescTable == 0 {
			if level == 2 {
				return t.descAddr(table, idx), nil // 2MB block slot
			}
			return 0, nil
		}
		table = PA(desc & OAMask)
	}
	return t.descAddr(table, s1Index(va, 3)), nil
}

// Visit walks every valid leaf mapping in ascending VA order, calling
// fn(va, desc, size) with TTBR1-half addresses in canonical form. The
// LightZone module uses it to duplicate the kernel-managed table at
// lz_enter (§5.1.2); the verifiers use it to snapshot tables. Visiting
// stops when fn returns false.
func (t *Stage1) Visit(fn func(va VA, desc uint64, size uint64) bool) error {
	_, err := t.visit(t.root, 0, 0, fn)
	return err
}

// canonical returns the architectural form of a table-walk address: root
// indices >= 256 select the upper (TTBR1) VA half, which sign-extends
// bit 47.
func canonical(va uint64) uint64 {
	if va&(1<<(VABits-1)) != 0 {
		va |= ^(uint64(1)<<VABits - 1)
	}
	return va
}

// visit walks one table and reports whether the walk should go on: a false
// from fn stops the enclosing tables' loops too, not just this one's.
func (t *Stage1) visit(table PA, level int, base uint64, fn func(VA, uint64, uint64) bool) (bool, error) {
	f, err := t.pm.frame(table)
	if err != nil {
		return false, err
	}
	span := uint64(1) << (PageShift + 9*(3-level))
	for idx := uint64(0); idx < 512; idx++ {
		desc := binary.LittleEndian.Uint64(f[idx*8 : idx*8+8])
		if desc&DescValid == 0 {
			continue
		}
		va := canonical(base + idx*span)
		more := true
		switch {
		case level == 3:
			more = fn(VA(va), desc, PageSize)
		case desc&DescTable == 0:
			if level == 2 {
				more = fn(VA(va), desc, HugePageSize)
			}
		default:
			if more, err = t.visit(PA(desc&OAMask), level+1, va, fn); err != nil {
				return false, err
			}
		}
		if !more {
			return false, nil
		}
	}
	return true, nil
}

// CopyLeaves copies into t every leaf mapping of src (4KB pages and 2MB
// blocks) whose descriptor has none of the skip bits set, with the same
// output address and attributes — the lz_alloc duplication of the base
// table (§6.1). It works one level-3 table at a time: destination tables
// are allocated through the same descent Map performs, in ascending VA
// order, only for source leaf tables holding at least one copied leaf, and
// each destination leaf table is resolved for writing once and filled
// slot by slot. The resulting table frames, their contents and the
// OnAllocTable calls are exactly those of calling Map (or MapBlock) for
// each copied leaf in Visit order.
//
// It returns the number of leaves copied. On error the count includes the
// leaf whose copy failed, so a caller charging per copied leaf charges
// what the equivalent per-leaf loop would have.
func (t *Stage1) CopyLeaves(src *Stage1, skip uint64) (int, error) {
	t.lastLeafTable = 0
	return t.copyLeaves(src, src.root, 0, 0, skip)
}

func (t *Stage1) copyLeaves(src *Stage1, table PA, level int, base uint64, skip uint64) (int, error) {
	f, err := src.pm.frame(table)
	if err != nil {
		return 0, err
	}
	if level == 3 {
		return t.copyLeafTable(f, base, skip)
	}
	span := uint64(1) << (PageShift + 9*(3-level))
	n := 0
	for idx := uint64(0); idx < 512; idx++ {
		desc := binary.LittleEndian.Uint64(f[idx*8 : idx*8+8])
		if desc&DescValid == 0 {
			continue
		}
		va := canonical(base + idx*span)
		switch {
		case desc&DescTable != 0:
			m, err := t.copyLeaves(src, PA(desc&OAMask), level+1, va, skip)
			n += m
			if err != nil {
				return n, err
			}
		case level == 2 && desc&skip == 0:
			n++
			attrs := desc &^ OAMask &^ (DescValid | DescTable | AttrAF)
			if err := t.MapBlock(VA(va), PA(desc&OAMask), attrs); err != nil {
				return n, err
			}
		}
	}
	return n, nil
}

// copyLeafTable copies the unskipped leaves of one source level-3 table
// (frame f, mapping the 2MB region at base). The destination leaf table is
// allocated at the first copied leaf — where Map would have descended —
// and written in place from then on, storing exactly the descriptor Map
// stores.
func (t *Stage1) copyLeafTable(f *[PageSize]byte, base uint64, skip uint64) (int, error) {
	var dst *[PageSize]byte
	n := 0
	for idx := uint64(0); idx < 512; idx++ {
		desc := binary.LittleEndian.Uint64(f[idx*8 : idx*8+8])
		if desc&DescValid == 0 || desc&skip != 0 {
			continue
		}
		n++
		if dst == nil {
			va := VA(base + idx*PageSize)
			table := t.root
			for level := 0; level < 3; level++ {
				next, err := t.nextTable(table, s1Index(va, level), true)
				if err != nil {
					return n, fmt.Errorf("map %v level %d: %w", va, level, err)
				}
				table = next
			}
			var err error
			if dst, err = t.pm.frame(table); err != nil {
				return n, err
			}
		}
		binary.LittleEndian.PutUint64(dst[idx*8:idx*8+8], desc|DescTable|AttrAF)
	}
	return n, nil
}

// Free releases every frame owned by the table structure (not the mapped
// data frames). The table must not be used afterwards.
func (t *Stage1) Free() {
	t.free(t.root, 0)
	t.root = 0
	t.tableFrames = 0
	t.lastLeafTable = 0
}

func (t *Stage1) free(table PA, level int) {
	if level < 3 {
		// One frame read per table: freeing children only returns frames
		// to the allocator, so the descriptors stay put while we iterate.
		if f, err := t.pm.frame(table); err == nil {
			for idx := uint64(0); idx < 512; idx++ {
				desc := binary.LittleEndian.Uint64(f[idx*8 : idx*8+8])
				if desc&DescValid != 0 && desc&DescTable != 0 {
					t.free(PA(desc&OAMask), level+1)
				}
			}
		}
	}
	t.pm.FreeFrame(table)
}
