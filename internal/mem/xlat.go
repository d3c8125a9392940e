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

// DescKind is what a descriptor means at the level it was fetched from.
type DescKind uint8

const (
	DescKindInvalid  DescKind = iota // valid bit clear: translation fault
	DescKindTable                    // next-level table (levels 0-2)
	DescKindPage                     // 4KB page (level 3)
	DescKindBlock                    // 2MB block (level 2)
	DescKindReserved                 // block encoding where none is modelled
)

// ClassifyDesc decodes the valid and table bits of a descriptor fetched at
// level. Blocks are modelled only at level 2, so a block encoding at
// levels 0, 1 or 3 is reserved and faults like an invalid descriptor.
func ClassifyDesc(desc uint64, level int) DescKind {
	switch {
	case desc&DescValid == 0:
		return DescKindInvalid
	case desc&DescTable != 0:
		if level == 3 {
			return DescKindPage
		}
		return DescKindTable
	case level == 2:
		return DescKindBlock
	}
	return DescKindReserved
}

// LevelShift is log2 of the region one descriptor at level maps: a table's
// span, or a leaf's size (12 for a level-3 page, 21 for a level-2 block).
func LevelShift(level int) uint { return PageShift + 9*uint(3-level) }

// TableIndex is the descriptor index addr selects in a level's table.
func TableIndex(addr uint64, level int) uint64 { return addr >> LevelShift(level) & 0x1FF }

// LeafOA is the output address a leaf descriptor gives addr, for a leaf
// mapping 1<<shift bytes.
func LeafOA(desc, addr uint64, shift uint) uint64 {
	mask := uint64(1)<<shift - 1
	return desc&OAMask&^mask | addr&mask
}

func readDesc(f *[PageSize]byte, idx uint64) uint64 {
	return binary.LittleEndian.Uint64(f[idx*8 : idx*8+8])
}

func writeDesc(f *[PageSize]byte, idx uint64, desc uint64) {
	binary.LittleEndian.PutUint64(f[idx*8:idx*8+8], desc)
}

// xlat is the VMSAv8-64 4KB-granule translation-table engine behind both
// Stage1 (48-bit VA, four levels from level 0) and Stage2 (39-bit IPA,
// three levels from level 1). It works on untyped input addresses: the
// facades check the range of their address type before calling in.
type xlat struct {
	pm          *PhysMem
	root        PA
	start       int // root table level
	tableFrames int

	// lastLeafKey/lastLeafTable cache the level-3 table of the last mapped
	// 2MB region, so callers mapping ascending addresses (lz_enter's table
	// duplication, EnsureMapped, stage-2 mirroring) skip the descent. Leaf
	// tables live until free; only free, mapBlock (which may replace a
	// level-2 table slot with a block) and copyLeaves (which fills leaf
	// tables directly) invalidate it.
	lastLeafKey   uint64
	lastLeafTable PA
}

// Root returns the physical address of the root table (the TTBR or
// VTTBR base address field).
func (t *xlat) Root() PA { return t.root }

// TableBytes returns the memory consumed by table frames allocated through
// this table — the paper's page-table memory overhead metric (§9.1-§9.3).
func (t *xlat) TableBytes() uint64 { return uint64(t.tableFrames) * PageSize }

// descend returns the table at level to on addr's path, allocating the
// missing tables on the way. hook, when set, sees every new table frame;
// its error fails the descent.
func (t *xlat) descend(addr uint64, to int, hook func(PA) error) (PA, error) {
	table := t.root
	for level := t.start; level < to; level++ {
		f, err := t.pm.frame(table)
		if err != nil {
			return 0, fmt.Errorf("map %#x level %d: %w", addr, level, err)
		}
		idx := TableIndex(addr, level)
		switch desc := readDesc(f, idx); ClassifyDesc(desc, level) {
		case DescKindTable:
			table = PA(desc & OAMask)
			continue
		case DescKindInvalid:
		default:
			return 0, fmt.Errorf("map %#x level %d: descriptor at %v is a block, not a table", addr, level, table+PA(idx*8))
		}
		next, err := t.pm.AllocFrame()
		if err == nil {
			t.tableFrames++
			writeDesc(f, idx, uint64(next)|DescValid|DescTable)
			if hook != nil {
				err = hook(next)
			}
		}
		if err != nil {
			return 0, fmt.Errorf("map %#x level %d: %w", addr, level, err)
		}
		table = next
	}
	return table, nil
}

// set writes desc into slot idx of table.
func (t *xlat) set(table PA, idx, desc uint64) error {
	f, err := t.pm.frame(table)
	if err == nil {
		writeDesc(f, idx, desc)
	}
	return err
}

// mapPage installs a 4KB leaf addr -> pa. Valid, page and AF bits are
// supplied.
func (t *xlat) mapPage(addr uint64, pa PA, attrs uint64, hook func(PA) error) error {
	table := t.lastLeafTable
	if table == 0 || addr>>HugePageShift != t.lastLeafKey {
		var err error
		if table, err = t.descend(addr, 3, hook); err != nil {
			return err
		}
		t.lastLeafKey, t.lastLeafTable = addr>>HugePageShift, table
	}
	return t.set(table, TableIndex(addr, 3), uint64(pa)&OAMask|attrs|DescValid|DescTable|AttrAF)
}

// mapBlock installs a 2MB block addr -> pa at level 2.
func (t *xlat) mapBlock(addr uint64, pa PA, attrs uint64, hook func(PA) error) error {
	if addr&HugePageMask != 0 || uint64(pa)&HugePageMask != 0 {
		return fmt.Errorf("unaligned 2MB mapping %#x -> %v", addr, pa)
	}
	t.lastLeafTable = 0
	table, err := t.descend(addr, 2, hook)
	if err != nil {
		return err
	}
	return t.set(table, TableIndex(addr, 2), uint64(pa)&OAMask|attrs|DescValid|AttrAF) // no DescTable: block
}

// slot follows table descriptors towards addr to the first slot not holding
// one, at the latest the level-3 slot, which it leaves to the caller to read:
// a fourth read here measurably slowed lz_prot's walk of every domain table.
func (t *xlat) slot(addr uint64) (*[PageSize]byte, uint64, int, error) {
	table := t.root
	for level := t.start; level < 3; level++ {
		f, err := t.pm.frame(table)
		if err != nil {
			return nil, 0, level, err
		}
		idx := TableIndex(addr, level)
		desc := readDesc(f, idx)
		if desc&(DescValid|DescTable) != DescValid|DescTable {
			return f, idx, level, nil
		}
		table = PA(desc & OAMask)
	}
	f, err := t.pm.frame(table)
	return f, TableIndex(addr, 3), 3, err
}

// walk performs a software walk for addr.
func (t *xlat) walk(addr uint64) (WalkResult, error) {
	f, idx, level, err := t.slot(addr)
	res := WalkResult{Level: level, Levels: level - t.start + 1, BlockShift: PageShift}
	if err != nil {
		return res, err
	}
	desc := readDesc(f, idx)
	if kind := ClassifyDesc(desc, level); kind == DescKindPage || kind == DescKindBlock {
		res.Desc, res.Found, res.BlockShift = desc, true, LevelShift(level)
		res.PA = PA(LeafOA(desc, addr, res.BlockShift))
	}
	return res, nil
}

// update rewrites the valid leaf slot mapping addr (a page or 2MB block)
// with fn(desc), reporting whether one existed. Like visit and copyLeaves,
// it takes any valid level-3 descriptor for a leaf, even a reserved one
// that walks fault on.
func (t *xlat) update(addr uint64, fn func(uint64) uint64) (bool, error) {
	f, idx, level, err := t.slot(addr)
	if err != nil {
		return false, err
	}
	desc := readDesc(f, idx)
	if desc&DescValid == 0 || level < 2 { // a block encoding above level 2 maps nothing
		return false, nil
	}
	writeDesc(f, idx, fn(desc))
	return true, nil
}

// tables walks the tree under table in ascending address order, handing
// each level-3 table (its frame and base address) to leafTable and each
// 2MB block to block, with upper-half addresses in canonical form. It
// reports whether the walk should go on: a false from either callback
// stops the enclosing tables' loops too, not just this one's.
func tables(pm *PhysMem, table PA, level int, base uint64, leafTable func(*[PageSize]byte, uint64) bool, block func(addr, desc uint64) bool) (bool, error) {
	f, err := pm.frame(table)
	if err != nil {
		return false, err
	}
	if level == 3 {
		return leafTable(f, base), nil
	}
	span := uint64(1) << LevelShift(level)
	for idx := uint64(0); idx < 512; idx++ {
		desc := readDesc(f, idx)
		if desc&DescValid == 0 {
			continue // most slots of a sparse table; cheaper than classifying
		}
		more := true
		switch ClassifyDesc(desc, level) {
		case DescKindTable:
			if more, err = tables(pm, PA(desc&OAMask), level+1, canonical(base+idx*span), leafTable, block); err != nil {
				return false, err
			}
		case DescKindBlock:
			more = block(canonical(base+idx*span), desc)
		}
		if !more {
			return false, nil
		}
	}
	return true, nil
}

// canonical returns the architectural form of a table-walk address: root
// indices >= 256 select the upper (TTBR1) VA half, which sign-extends
// bit 47. Stage-2 addresses never reach bit 47.
func canonical(va uint64) uint64 {
	if va&(1<<(VABits-1)) != 0 {
		va |= ^(uint64(1)<<VABits - 1)
	}
	return va
}

// visit calls fn(addr, desc, size) for every valid leaf in ascending
// address order, until fn returns false.
func (t *xlat) visit(fn func(addr, desc, size uint64) bool) error {
	_, err := tables(t.pm, t.root, t.start, 0, func(f *[PageSize]byte, base uint64) bool {
		for idx := uint64(0); idx < 512; idx++ {
			if desc := readDesc(f, idx); desc&DescValid != 0 && !fn(base+idx*PageSize, desc, PageSize) {
				return false
			}
		}
		return true
	}, func(addr, desc uint64) bool { return fn(addr, desc, HugePageSize) })
	return err
}

// copyLeaves copies into t every leaf of src (4KB pages and 2MB blocks)
// whose descriptor has none of the skip bits set, with the same output
// address and attributes. It works one level-3 table at a time:
// destination tables are allocated through the same descent mapPage
// performs, in ascending address order, only for source leaf tables
// holding at least one copied leaf, and each destination leaf table is
// resolved for writing once and filled slot by slot. The resulting table
// frames, their contents and the hook calls are exactly those of mapping
// each copied leaf in visit order.
//
// It returns the number of leaves copied. On error the count includes the
// leaf whose copy failed, so a caller charging per copied leaf charges
// what the equivalent per-leaf loop would have.
func (t *xlat) copyLeaves(src *xlat, skip uint64, hook func(PA) error) (int, error) {
	t.lastLeafTable = 0
	n := 0
	var err error
	_, walkErr := tables(src.pm, src.root, src.start, 0, func(f *[PageSize]byte, base uint64) bool {
		var m int
		m, err = t.copyLeafTable(f, base, skip, hook)
		n += m
		return err == nil
	}, func(addr, desc uint64) bool {
		if desc&skip != 0 {
			return true
		}
		n++
		err = t.mapBlock(addr, PA(desc&OAMask), desc&^OAMask&^(DescValid|DescTable|AttrAF), hook)
		return err == nil
	})
	if walkErr != nil {
		return n, walkErr
	}
	return n, err
}

// copyLeafTable copies the unskipped leaves of one source level-3 table
// (frame f, mapping the 2MB region at base). The destination leaf table is
// allocated at the first copied leaf — where mapPage would have descended
// — and written in place from then on, storing exactly the descriptor
// mapPage stores.
func (t *xlat) copyLeafTable(f *[PageSize]byte, base uint64, skip uint64, hook func(PA) error) (int, error) {
	var dst *[PageSize]byte
	n := 0
	for idx := uint64(0); idx < 512; idx++ {
		desc := readDesc(f, idx)
		if desc&DescValid == 0 || desc&skip != 0 {
			continue
		}
		n++
		if dst == nil {
			table, err := t.descend(base+idx*PageSize, 3, hook)
			if err != nil {
				return n, err
			}
			if dst, err = t.pm.frame(table); err != nil {
				return n, err
			}
		}
		writeDesc(dst, idx, desc|DescTable|AttrAF)
	}
	return n, nil
}

// Free releases every table frame (not the mapped data frames). The table
// must not be used afterwards.
func (t *xlat) Free() {
	t.freeTable(t.root, t.start)
	t.root, t.tableFrames, t.lastLeafTable = 0, 0, 0
}

func (t *xlat) freeTable(table PA, level int) {
	if level < 3 {
		// One frame read per table: freeing children only returns frames
		// to the allocator, so the descriptors stay put while we iterate.
		if f, err := t.pm.frame(table); err == nil {
			for idx := uint64(0); idx < 512; idx++ {
				if desc := readDesc(f, idx); desc&(DescValid|DescTable) == DescValid|DescTable {
					t.freeTable(PA(desc&OAMask), level+1)
				}
			}
		}
	}
	t.pm.FreeFrame(table)
}
