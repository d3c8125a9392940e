package core

import "lightzone/internal/mem"

// FakePhys implements the fake-physical-address randomization layer of
// §5.1.2: a one-to-one mapping between real physical pages and sequentially
// allocated fake physical pages. The stage-1 page tables of a TTBR-mode
// LightZone process map virtual addresses to fake addresses, and the
// process's stage-2 table maps fake addresses to real ones, so a process
// that reads its own PTEs (which stage-2 exposes read-only) learns nothing
// about real DRAM layout — closing the Rowhammer-assistance channel the
// paper describes.
type FakePhys struct {
	// Identity disables the layer (the paper's "intuitive" translation,
	// kept as an ablation).
	Identity bool

	next     uint64
	realToFk map[mem.PA]mem.IPA
	fkToReal map[mem.IPA]mem.PA
}

// FakeBase is the start of the fake physical region. The paper's example
// allocates fake pages sequentially from small addresses (0x1000, 0x2000,
// ...); here the sequence starts in a high IPA region disjoint from real
// physical memory, because the process's stage-2 table must simultaneously
// identity-map its stage-1 table frames (read-only) at their real
// addresses — the two ranges must not collide.
const FakeBase = uint64(1) << 34 // 16GB, well above modelled DRAM, < 2^39 IPA

// NewFakePhys creates an empty mapping. Fake pages are allocated
// sequentially: the first fault gets FakeBase+0x1000, the second
// FakeBase+0x2000, ... (cf. the paper's 0x1000/0x2000 example).
func NewFakePhys(identity bool) *FakePhys {
	return &FakePhys{
		Identity: identity,
		next:     FakeBase + 0x1000,
		realToFk: make(map[mem.PA]mem.IPA),
		fkToReal: make(map[mem.IPA]mem.PA),
	}
}

// FakeOf returns the fake page for a real page, allocating sequentially on
// first use. Real and fake addresses are page-aligned.
func (f *FakePhys) FakeOf(pa mem.PA) mem.IPA {
	if f.Identity {
		return mem.IPA(pa)
	}
	base := pa &^ mem.PA(mem.PageMask)
	if fk, ok := f.realToFk[base]; ok {
		return fk
	}
	fk := mem.IPA(f.next)
	f.next += mem.PageSize
	f.realToFk[base] = fk
	f.fkToReal[fk] = base
	return fk
}

// FakeOfBlock allocates a 2MB-aligned fake region for a 2MB real block
// (huge-page mappings, §9.3).
func (f *FakePhys) FakeOfBlock(pa mem.PA) mem.IPA {
	if f.Identity {
		return mem.IPA(pa)
	}
	base := pa &^ mem.PA(mem.HugePageMask)
	if fk, ok := f.realToFk[base]; ok {
		return fk
	}
	// Align the sequential allocator up to a 2MB boundary.
	next := (f.next + mem.HugePageMask) &^ uint64(mem.HugePageMask)
	fk := mem.IPA(next)
	f.next = next + mem.HugePageSize
	f.realToFk[base] = fk
	f.fkToReal[fk] = base
	return fk
}

// RealOf resolves a fake page back to its real page.
func (f *FakePhys) RealOf(fk mem.IPA) (mem.PA, bool) {
	if f.Identity {
		return mem.PA(fk), true
	}
	pa, ok := f.fkToReal[fk&^mem.IPA(mem.PageMask)]
	return pa, ok
}

// Len returns the number of live translations.
func (f *FakePhys) Len() int { return len(f.realToFk) }

// Drop removes the mapping for a real page (page freed/unmapped).
func (f *FakePhys) Drop(pa mem.PA) {
	base := pa &^ mem.PA(mem.PageMask)
	if fk, ok := f.realToFk[base]; ok {
		delete(f.realToFk, base)
		delete(f.fkToReal, fk)
	}
}
