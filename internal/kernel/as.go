package kernel

import (
	"fmt"
	"sort"

	"lightzone/internal/mem"
)

// Prot is a VMA protection mask.
type Prot uint8

// Protection bits.
const (
	ProtRead Prot = 1 << iota
	ProtWrite
	ProtExec
)

func (p Prot) String() string {
	b := []byte("---")
	if p&ProtRead != 0 {
		b[0] = 'r'
	}
	if p&ProtWrite != 0 {
		b[1] = 'w'
	}
	if p&ProtExec != 0 {
		b[2] = 'x'
	}
	return string(b)
}

// VMA is a kernel-managed virtual memory area.
type VMA struct {
	Start mem.VA
	End   mem.VA // exclusive
	Prot  Prot
	Name  string
	Huge  bool // back with 2MB mappings
}

// Contains reports whether va falls inside the area.
func (v *VMA) Contains(va mem.VA) bool { return va >= v.Start && va < v.End }

// AddressSpace is a process address space: the kernel-managed stage-1 page
// table plus the VMA list driving demand paging.
type AddressSpace struct {
	S1   *mem.Stage1
	pm   *mem.PhysMem
	vmas []VMA

	// DataBytes counts frames demand-mapped for this address space
	// (the paper's application memory consumption metric).
	DataBytes uint64

	// UnmapNotify, when set, is called whenever the kernel unmaps a page
	// so LightZone can synchronize its duplicated page tables (§5.1.2:
	// "their page tables are synchronized with the kernel-managed page
	// tables").
	UnmapNotify func(va mem.VA)

	// ProtNotify, when set, is called whenever the kernel changes a
	// mapped page's protection (mprotect), for the same synchronization.
	ProtNotify func(va mem.VA)
}

// NewAddressSpace creates an empty address space with the given ASID.
func NewAddressSpace(pm *mem.PhysMem, asid uint16) (*AddressSpace, error) {
	s1, err := mem.NewStage1(pm, asid)
	if err != nil {
		return nil, err
	}
	return &AddressSpace{S1: s1, pm: pm}, nil
}

// AddVMA registers a region. Overlapping regions are rejected.
func (as *AddressSpace) AddVMA(v VMA) error {
	if v.Start >= v.End || uint64(v.Start)&mem.PageMask != 0 || uint64(v.End)&mem.PageMask != 0 {
		return fmt.Errorf("bad VMA [%v, %v)", v.Start, v.End)
	}
	for i := range as.vmas {
		if v.Start < as.vmas[i].End && as.vmas[i].Start < v.End {
			return fmt.Errorf("VMA [%v, %v) overlaps %q", v.Start, v.End, as.vmas[i].Name)
		}
	}
	as.vmas = append(as.vmas, v)
	sort.Slice(as.vmas, func(i, j int) bool { return as.vmas[i].Start < as.vmas[j].Start })
	return nil
}

// FindVMA returns the VMA containing va, or nil.
func (as *AddressSpace) FindVMA(va mem.VA) *VMA {
	i := sort.Search(len(as.vmas), func(i int) bool { return as.vmas[i].End > va })
	if i < len(as.vmas) && as.vmas[i].Contains(va) {
		return &as.vmas[i]
	}
	return nil
}

// VMAs returns a copy of the VMA list.
func (as *AddressSpace) VMAs() []VMA {
	out := make([]VMA, len(as.vmas))
	copy(out, as.vmas)
	return out
}

// RemoveVMA unmaps [start, end) and drops covering VMAs (munmap). Pages
// already faulted in are unmapped and their frames freed; LightZone is
// notified per page so duplicated tables stay synchronized.
func (as *AddressSpace) RemoveVMA(start, end mem.VA) error {
	if uint64(start)&mem.PageMask != 0 {
		return fmt.Errorf("unaligned munmap start %v", start)
	}
	kept := as.vmas[:0]
	for _, v := range as.vmas {
		switch {
		case v.End <= start || v.Start >= end:
			kept = append(kept, v)
		case v.Start >= start && v.End <= end:
			// fully covered: dropped
		case v.Start < start && v.End > end:
			kept = append(kept, VMA{Start: v.Start, End: start, Prot: v.Prot, Name: v.Name, Huge: v.Huge},
				VMA{Start: end, End: v.End, Prot: v.Prot, Name: v.Name, Huge: v.Huge})
		case v.Start < start:
			v.End = start
			kept = append(kept, v)
		default:
			v.Start = end
			kept = append(kept, v)
		}
	}
	as.vmas = kept
	return as.eachMapped(start, end, func(va mem.VA, res mem.WalkResult) error {
		if _, err := as.S1.Unmap(va); err != nil {
			return err
		}
		as.pm.FreeFrame(res.PA &^ mem.PA(mem.PageMask))
		if as.DataBytes >= mem.PageSize {
			as.DataBytes -= mem.PageSize
		}
		if as.UnmapNotify != nil {
			as.UnmapNotify(va)
		}
		return nil
	})
}

// eachMapped calls fn for every va in [start, end), stepping by pages from
// start, whose page the kernel-managed table maps. A walk that ends at an
// empty descriptor skips the whole region that descriptor covers, so a
// guest-supplied range costs what is mapped in it, not its length.
func (as *AddressSpace) eachMapped(start, end mem.VA, fn func(mem.VA, mem.WalkResult) error) error {
	for va := start; va < end; {
		res, err := as.S1.Walk(va)
		if err != nil {
			return err
		}
		if !res.Found {
			span := mem.VA(1) << mem.LevelShift(res.Level)
			va = va&^(span-1) + span + va&mem.PageMask
			continue
		}
		if err := fn(va, res); err != nil {
			return err
		}
		va += mem.PageSize
	}
	return nil
}

// SetProt rewrites the protection of every VMA fully inside [start, end)
// (mprotect's bookkeeping; partial overlaps are left unchanged, matching
// the simplified mprotect that operates on whole regions).
func (as *AddressSpace) SetProt(start, end mem.VA, prot Prot) {
	for i := range as.vmas {
		if as.vmas[i].Start >= start && as.vmas[i].End <= end {
			as.vmas[i].Prot = prot
		}
	}
}

// attrsForProt converts VMA protection to stage-1 PTE attributes for a
// user-process mapping in the kernel-managed table: user pages (AP[1] set),
// ASID-tagged, execute-never for the kernel (PXN always — user code must
// never run privileged in the kernel's own table).
func attrsForProt(p Prot) uint64 {
	attrs := mem.AttrAPUser | mem.AttrNG | mem.AttrPXN
	if p&ProtWrite == 0 {
		attrs |= mem.AttrAPRO
	}
	if p&ProtExec == 0 {
		attrs |= mem.AttrUXN
	}
	return attrs
}

// DemandMap handles a translation fault at va: if a VMA covers it, allocate
// and map a frame (or a 2MB block for huge VMAs) and return true.
func (as *AddressSpace) DemandMap(va mem.VA) (bool, error) {
	v := as.FindVMA(va)
	if v == nil {
		return false, nil
	}
	if v.Huge {
		base := mem.VA(uint64(va) &^ uint64(mem.HugePageMask))
		pa, err := as.pm.AllocContiguous(mem.HugePageSize / mem.PageSize)
		if err != nil {
			return false, err
		}
		if err := as.S1.MapBlock(base, pa, attrsForProt(v.Prot)); err != nil {
			return false, err
		}
		as.DataBytes += mem.HugePageSize
		return true, nil
	}
	page := mem.PageAlignDown(va)
	pa, err := as.pm.AllocFrame()
	if err != nil {
		return false, err
	}
	if err := as.S1.Map(page, pa, attrsForProt(v.Prot)); err != nil {
		return false, err
	}
	as.DataBytes += mem.PageSize
	return true, nil
}

// EnsureMapped pre-faults every page of [start, start+len) (used by program
// loading and workload setup).
func (as *AddressSpace) EnsureMapped(start mem.VA, length uint64) error {
	end := mem.VA(mem.PageAlignUp(uint64(start) + length))
	step := mem.VA(mem.PageSize)
	for va := mem.PageAlignDown(start); va < end; va += step {
		res, err := as.S1.Walk(va)
		if err != nil {
			return err
		}
		if res.Found {
			continue
		}
		ok, err := as.DemandMap(va)
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("no VMA covers %v", va)
		}
	}
	return nil
}

// WriteVA copies buf into the address space at va, faulting pages in.
func (as *AddressSpace) WriteVA(va mem.VA, buf []byte) error {
	if err := as.EnsureMapped(va, uint64(len(buf))); err != nil {
		return err
	}
	for len(buf) > 0 {
		res, err := as.S1.Walk(va)
		if err != nil {
			return err
		}
		if !res.Found {
			return fmt.Errorf("unmapped %v", va)
		}
		n := int(mem.PageSize - uint64(va)&mem.PageMask)
		if res.BlockShift == mem.HugePageShift {
			n = int(mem.HugePageSize - uint64(va)&mem.HugePageMask)
		}
		if n > len(buf) {
			n = len(buf)
		}
		if err := as.pm.Write(res.PA, buf[:n]); err != nil {
			return err
		}
		buf = buf[n:]
		va += mem.VA(n)
	}
	return nil
}

// ReadVA copies len(buf) bytes out of the address space at va.
func (as *AddressSpace) ReadVA(va mem.VA, buf []byte) error {
	for len(buf) > 0 {
		res, err := as.S1.Walk(va)
		if err != nil {
			return err
		}
		if !res.Found {
			return fmt.Errorf("unmapped %v", va)
		}
		n := int(mem.PageSize - uint64(va)&mem.PageMask)
		if res.BlockShift == mem.HugePageShift {
			n = int(mem.HugePageSize - uint64(va)&mem.HugePageMask)
		}
		if n > len(buf) {
			n = len(buf)
		}
		if err := as.pm.Read(res.PA, buf[:n]); err != nil {
			return err
		}
		buf = buf[n:]
		va += mem.VA(n)
	}
	return nil
}
