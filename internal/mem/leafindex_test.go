package mem

import (
	"bytes"
	"fmt"
	"testing"
)

// leafFamily is a set of stage-1 tables in one PhysMem, attached to one
// leaf index by slot like a process's domain tables.
type leafFamily struct {
	pm     *PhysMem
	ix     *LeafIndex
	tables []*Stage1 // by slot; nil for a free slot
}

func newLeafFamily(t testing.TB, n int) *leafFamily {
	pm := NewPhysMem(256 << 20)
	fam := &leafFamily{pm: pm, ix: NewLeafIndex(pm)}
	for i := 0; i < n; i++ {
		fam.attach(t, i)
	}
	return fam
}

func (fam *leafFamily) attach(t testing.TB, slot int) *Stage1 {
	s, err := NewStage1(fam.pm, uint16(slot+1))
	if err != nil {
		t.Fatal(err)
	}
	s.AttachIndex(fam.ix, slot)
	for len(fam.tables) <= slot {
		fam.tables = append(fam.tables, nil)
	}
	fam.tables[slot] = s
	return s
}

func (fam *leafFamily) free(slot int) {
	fam.tables[slot].Free()
	fam.tables[slot] = nil
}

// frames snapshots every materialized frame with its address.
func (fam *leafFamily) frames() []byte {
	var out []byte
	fam.pm.VisitFrames(func(pa PA, f *[PageSize]byte) {
		out = fmt.Appendf(out, "%v", pa)
		out = append(out, f[:]...)
	})
	return out
}

// TestLeafIndexTracksTables runs mapping, copying, block, free and slot
// reuse steps on a family of tables and checks the index against a walk of
// every table after each; it also requires Unmap through the index to
// leave memory exactly as a per-table Unmap does.
func TestLeafIndexTracksTables(t *testing.T) {
	const (
		heap  = 0x4000_0000
		block = 0x4060_0000 // a 2MB region of its own
		upper = TTBR1Base + 0x1000
	)
	build := func() *leafFamily {
		fam := newLeafFamily(t, 3)
		check := func(step string) {
			t.Helper()
			if err := fam.ix.Check(); err != nil {
				t.Fatalf("after %s: %v", step, err)
			}
		}
		base := fam.tables[0]
		for i := uint64(0); i < 600; i++ { // spans two 2MB regions
			if err := base.Map(VA(heap+i*PageSize), PA(0x100_0000+i*PageSize), AttrAPRO); err != nil {
				t.Fatal(err)
			}
		}
		if err := base.Map(upper, 0x200_0000, 0); err != nil {
			t.Fatal(err)
		}
		if err := base.MapBlock(block, 0x400_0000, 0); err != nil {
			t.Fatal(err)
		}
		check("base mapping")
		for _, s := range fam.tables[1:] {
			if _, err := s.CopyLeaves(base, 0); err != nil {
				t.Fatal(err)
			}
		}
		check("copy")
		if err := fam.tables[1].MapBlock(heap, 0x600_0000, 0); err == nil {
			t.Fatal("MapBlock over a leaf table succeeded")
		}
		check("refused block")
		fam.free(1)
		check("free")
		reused := fam.attach(t, 1)
		if err := reused.Map(VA(heap+PageSize), 0x300_0000, 0); err != nil {
			t.Fatal(err)
		}
		check("slot reuse")
		fam.free(2)
		check("second free")
		return fam
	}
	viaIndex, viaWalk := build(), build()
	for _, va := range []VA{heap + PageSize, heap + 599*PageSize, block + 0x3000, upper, 0x7000_0000} {
		viaIndex.ix.Unmap(va)
		for _, s := range viaWalk.tables {
			if s != nil {
				if _, err := s.Unmap(va); err != nil {
					t.Fatal(err)
				}
			}
		}
		if !bytes.Equal(viaIndex.frames(), viaWalk.frames()) {
			t.Fatalf("Unmap(%v) through the index left different memory than per-table Unmap", va)
		}
		if res, _ := viaIndex.tables[0].Walk(va); res.Found {
			t.Fatalf("%v still mapped after Unmap", va)
		}
	}
	if err := viaIndex.ix.Check(); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkLeafIndexUnmap withdraws one page from 512 tables that each
// hold a leaf table for its region: through the index (one store per
// table) against a walk of every table from its root.
func BenchmarkLeafIndexUnmap(b *testing.B) {
	const tables, pages = 512, 64
	fam := newLeafFamily(b, tables)
	for _, s := range fam.tables {
		for i := uint64(0); i < pages; i++ {
			if err := s.Map(VA(0x6100_0000+i*PageSize), PA(0x100_0000+i*PageSize), 0); err != nil {
				b.Fatal(err)
			}
		}
	}
	va := func(i int) VA { return VA(0x6100_0000 + uint64(i%pages)*PageSize) }
	b.Run("index", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			fam.ix.Unmap(va(i))
		}
	})
	b.Run("walk", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, s := range fam.tables {
				_, _ = s.Unmap(va(i))
			}
		}
	})
}
