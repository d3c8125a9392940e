package mem

import "fmt"

// LeafIndex is a host-side index over a family of stage-1 tables that
// share an address space — the LightZone domain tables of one process.
// For every 2MB region (address >> 21) it holds, per table slot, the
// frame of the level-3 table that table maps the region with. Withdrawing
// a page from every table then costs one region lookup and one
// descriptor store per table instead of a walk from each root.
//
// The translation-table engine keeps the index current: descend registers
// every level-3 table it reaches or allocates (mapPage and copyLeaves go
// through it), and Free drops the freed table's entries and its slot.
// Tables never lose a leaf table otherwise: mapBlock fails rather than
// replace one, and unmapping clears descriptors without unlinking tables.
// A table with no entry for a region (an absent table, or a 2MB block)
// is walked from its root exactly as before.
//
// Guest memory is untouched by the index: it stores nothing in frames and
// charges nothing, so emulated cycles and memory contents are those of the
// walk it replaces.
type LeafIndex struct {
	pm     *PhysMem
	tables []*xlat // by slot; nil for a free slot
	// regions maps a 2MB region to its leaf-table frames by slot. A slice
	// grows to the highest slot that ever held a leaf table there and is
	// reused as slots are recycled, so steady-state churn allocates
	// nothing here.
	regions map[uint64][]*[PageSize]byte
}

// NewLeafIndex returns an empty index over tables in pm.
func NewLeafIndex(pm *PhysMem) *LeafIndex {
	return &LeafIndex{pm: pm, regions: make(map[uint64][]*[PageSize]byte)}
}

// AttachIndex makes t the table in slot of ix. The slot must be free, and
// t must map nothing yet: the index learns leaf tables only as the engine
// reaches them.
func (t *Stage1) AttachIndex(ix *LeafIndex, slot int) {
	for len(ix.tables) <= slot {
		ix.tables = append(ix.tables, nil)
	}
	ix.tables[slot] = &t.xlat
	t.leaves, t.leafSlot = ix, slot
}

// add registers table as slot's level-3 table for addr's region.
func (ix *LeafIndex) add(addr uint64, slot int, table PA) {
	f, err := ix.pm.frame(table)
	if err != nil {
		return // unregistered: Unmap walks this table for the region
	}
	region := addr >> HugePageShift
	leaf := ix.regions[region]
	if slot >= len(leaf) {
		leaf = append(leaf, make([]*[PageSize]byte, slot+1-len(leaf))...)
		ix.regions[region] = leaf
	}
	leaf[slot] = f
}

// drop forgets slot's level-3 table for addr's region.
func (ix *LeafIndex) drop(addr uint64, slot int) {
	if leaf := ix.regions[addr>>HugePageShift]; slot < len(leaf) {
		leaf[slot] = nil
	}
}

// Unmap removes the leaf mapping for va from every attached table, in slot
// order: one store into each registered leaf table, a walk of the others.
func (ix *LeafIndex) Unmap(va VA) {
	if !ValidVA(va) {
		return
	}
	leaf := ix.regions[uint64(va)>>HugePageShift]
	idx := TableIndex(uint64(va), 3)
	for slot, t := range ix.tables {
		switch {
		case slot < len(leaf) && leaf[slot] != nil:
			writeDesc(leaf[slot], idx, 0)
		case t != nil:
			_, _ = t.update(uint64(va), func(uint64) uint64 { return 0 })
		}
	}
}

// Check reports the first disagreement between ix and its tables: a frame
// registered for a free slot, a registered frame that is not the leaf
// table a walk of its table reaches, or a leaf table reachable from an
// attached root that is not registered.
func (ix *LeafIndex) Check() error {
	for region, leaf := range ix.regions {
		for slot, f := range leaf {
			if f == nil {
				continue
			}
			if slot >= len(ix.tables) || ix.tables[slot] == nil {
				return fmt.Errorf("free slot %d holds a leaf table for region %#x", slot, region<<HugePageShift)
			}
			got, _, level, err := ix.tables[slot].slot(region << HugePageShift)
			if err != nil || level != 3 || got != f {
				return fmt.Errorf("slot %d region %#x: registered leaf table is not the one its root reaches (level %d, %v)", slot, region<<HugePageShift, level, err)
			}
		}
	}
	for slot, t := range ix.tables {
		if t == nil {
			continue
		}
		var missing error
		if _, err := tables(t.pm, t.root, t.start, 0, nil, func(f *[PageSize]byte, base uint64) bool {
			if leaf := ix.regions[base>>HugePageShift]; slot >= len(leaf) || leaf[slot] != f {
				missing = fmt.Errorf("slot %d: leaf table for region %#x is not registered", slot, base)
			}
			return missing == nil
		}, func(uint64, uint64) bool { return true }); err != nil {
			return err
		}
		if missing != nil {
			return missing
		}
	}
	return nil
}
