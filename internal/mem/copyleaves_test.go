package mem

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

// copyLeavesReference is the per-leaf duplication CopyLeaves must match:
// Visit the source and Map (or MapBlock) every leaf without the skip bits,
// counting each leaf it attempts, the failing one included.
func copyLeavesReference(dst, src *Stage1, skip uint64) (int, error) {
	n := 0
	var copyErr error
	if err := src.Visit(func(va VA, desc uint64, size uint64) bool {
		if desc&skip != 0 {
			return true
		}
		attrs := desc &^ OAMask &^ (DescValid | DescTable | AttrAF)
		if size == HugePageSize {
			copyErr = dst.MapBlock(va, PA(desc&OAMask), attrs)
		} else {
			copyErr = dst.Map(va, PA(desc&OAMask), attrs)
		}
		n++
		return copyErr == nil
	}); err != nil {
		return n, err
	}
	return n, copyErr
}

// pattern returns a page of bytes that differ from every other seed's.
func pattern(seed byte) []byte {
	b := make([]byte, PageSize)
	for i := range b {
		b[i] = seed + byte(i)
	}
	return b
}

// buildCopySource builds a randomized base table in fresh physical memory:
// 2MB regions of 4KB leaves in both VA halves with random attributes (some
// skip-marked, some with the access flag clear), a region whose leaves are
// all skip-marked, a leaf table emptied by Unmap, and 2MB blocks. Freed
// junk frames are left on the free list so the destination reuses them.
// bare lists the regions (all-skipped, emptied) whose leaf tables hold no
// leaf to copy.
func buildCopySource(t *testing.T, seed int64) (pm *PhysMem, src *Stage1, bare []VA) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	pm = NewPhysMem(16 << 20)
	src, err := NewStage1(pm, 1)
	if err != nil {
		t.Fatal(err)
	}
	attrSets := []uint64{0, AttrAPRO, AttrPXN | AttrUXN, AttrAPUser, AttrNG, AttrAPRO | AttrPXN, OverlayKeyAttr(3)}
	attrs := func(skipOneIn int) uint64 {
		a := attrSets[rng.Intn(len(attrSets))]
		if rng.Intn(skipOneIn) == 0 {
			a |= AttrSWLZProt
		}
		return a
	}
	region := func() VA {
		va := VA(uint64(rng.Intn(1<<26)) << HugePageShift) // anywhere in TTBR0's range
		if rng.Intn(4) == 0 {
			va |= TTBR1Base
		}
		return va
	}
	leafPA := func() PA { return PA(uint64(rng.Intn(1<<28)) << PageShift) }
	mustMap := func(va VA, pa PA, a uint64) {
		if err := src.Map(va, pa, a); err != nil {
			t.Fatal(err)
		}
	}
	for i, regions := 0, 3+rng.Intn(5); i < regions; i++ {
		base := region()
		for j, pages := 0, 1+rng.Intn(80); j < pages; j++ {
			va := base + VA(rng.Intn(512))*PageSize
			mustMap(va, leafPA(), attrs(4))
			if rng.Intn(8) == 0 { // the copy must set AF like Map does
				if _, err := src.UpdateLeaf(va, func(d uint64) uint64 { return d &^ AttrAF }); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	skipped := region()
	for j := 0; j < 1+rng.Intn(20); j++ {
		mustMap(skipped+VA(rng.Intn(512))*PageSize, leafPA(), attrs(1))
	}
	emptied := region()
	mustMap(emptied, leafPA(), 0)
	if _, err := src.Unmap(emptied); err != nil {
		t.Fatal(err)
	}
	for i, blocks := 0, 1+rng.Intn(3); i < blocks; i++ {
		pa := PA(uint64(rng.Intn(1<<10)) << HugePageShift)
		if err := src.MapBlock(region()&^VA(HugePageMask), pa, attrs(3)); err != nil {
			t.Fatal(err)
		}
	}
	var junk []PA
	for i := 0; i < 8; i++ {
		pa, err := pm.AllocFrame()
		if err != nil {
			t.Fatal(err)
		}
		if err := pm.Write(pa, pattern(byte(i+1))); err != nil {
			t.Fatal(err)
		}
		junk = append(junk, pa)
	}
	rng.Shuffle(len(junk), func(i, j int) { junk[i], junk[j] = junk[j], junk[i] })
	for _, pa := range junk {
		pm.FreeFrame(pa)
	}
	return pm, src, []VA{skipped, emptied}
}

// copyResult is everything a copy can be observed by.
type copyResult struct {
	n      int
	err    error
	root   PA
	allocs []PA // OnAllocTable calls, in order
	bytes  uint64
	frames []PA // materialized frames, ascending
	image  [][]byte
	used   uint64
	dst    *Stage1
}

// runCopy allocates a destination table in pm, leaves only spare frames
// (all of them when spare < 0) and fails the table-allocation hook on call
// hookFail (never when < 0), then copies src into it with copyFn.
func runCopy(t *testing.T, pm *PhysMem, src *Stage1, spare, hookFail int, copyFn func(dst, src *Stage1) (int, error)) copyResult {
	t.Helper()
	dst, err := NewStage1(pm, 2)
	if err != nil {
		t.Fatal(err)
	}
	if spare >= 0 {
		var drained []PA
		for {
			pa, err := pm.AllocFrame()
			if err != nil {
				break
			}
			drained = append(drained, pa)
		}
		for i := spare - 1; i >= 0 && i < len(drained); i-- {
			pm.FreeFrame(drained[i])
		}
	}
	var r copyResult
	dst.OnAllocTable = func(pa PA) error {
		if len(r.allocs) == hookFail {
			return errors.New("table hook refused")
		}
		r.allocs = append(r.allocs, pa)
		return nil
	}
	r.n, r.err = copyFn(dst, src)
	r.dst = dst
	r.root, r.bytes, r.used = dst.Root(), dst.TableBytes(), pm.AllocatedBytes()
	pm.VisitFrames(func(pa PA, f *[PageSize]byte) {
		r.frames = append(r.frames, pa)
		r.image = append(r.image, append([]byte(nil), f[:]...))
	})
	return r
}

func (r copyResult) diff(ref copyResult) error {
	switch {
	case r.n != ref.n:
		return fmt.Errorf("copied %d leaves, per-leaf copy %d", r.n, ref.n)
	case fmt.Sprint(r.err) != fmt.Sprint(ref.err):
		return fmt.Errorf("error %v, per-leaf copy %v", r.err, ref.err)
	case r.root != ref.root || fmt.Sprint(r.allocs) != fmt.Sprint(ref.allocs):
		return fmt.Errorf("table frames %v %v, per-leaf copy %v %v", r.root, r.allocs, ref.root, ref.allocs)
	case r.bytes != ref.bytes:
		return fmt.Errorf("TableBytes %d, per-leaf copy %d", r.bytes, ref.bytes)
	case r.used != ref.used:
		return fmt.Errorf("allocated %d, per-leaf copy %d", r.used, ref.used)
	case fmt.Sprint(r.frames) != fmt.Sprint(ref.frames):
		return fmt.Errorf("materialized frames differ from the per-leaf copy")
	}
	for i := range r.image {
		if !bytes.Equal(r.image[i], ref.image[i]) {
			return fmt.Errorf("frame %v bytes differ from the per-leaf copy", r.frames[i])
		}
	}
	return nil
}

func copyLeaves(dst, src *Stage1) (int, error) { return dst.CopyLeaves(src, AttrSWLZProt) }

func referenceCopy(dst, src *Stage1) (int, error) {
	return copyLeavesReference(dst, src, AttrSWLZProt)
}

// TestCopyLeavesMatchesPerLeafCopy: over randomized base tables, the
// table-granular copy allocates the same table
// frames in the same order, writes the same bytes, materializes the same
// frames and counts the same leaves as the per-leaf Visit+Map loop.
func TestCopyLeavesMatchesPerLeafCopy(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		pmRef, srcRef, _ := buildCopySource(t, seed)
		pm, src, bare := buildCopySource(t, seed)
		ref := runCopy(t, pmRef, srcRef, -1, -1, referenceCopy)
		got := runCopy(t, pm, src, -1, -1, copyLeaves)
		if ref.err != nil {
			t.Fatalf("seed %d: per-leaf copy failed: %v", seed, ref.err)
		}
		if err := got.diff(ref); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
		for _, va := range bare {
			if res, err := got.dst.Walk(va); err != nil || res.Found || res.Level == 3 {
				t.Errorf("seed %d: leaf table allocated for %v, which has no leaf to copy", seed, va)
			}
		}
	}
}

// TestCopyLeavesMatchesPerLeafCopyOnFailure: when frames run out or the
// table-allocation hook refuses partway through, the table-granular copy
// fails with the same error, after the same leaf count (the failing leaf
// included) and the same partial table state as the per-leaf loop.
func TestCopyLeavesMatchesPerLeafCopyOnFailure(t *testing.T) {
	midCopy := 0
	for seed := int64(1); seed <= 12; seed++ {
		pmFull, srcFull, _ := buildCopySource(t, seed)
		full := runCopy(t, pmFull, srcFull, -1, -1, referenceCopy)
		steps := len(full.allocs)
		for k := 0; k <= steps; k++ {
			for _, c := range []struct{ spare, hookFail int }{{k, -1}, {-1, k}} {
				pmRef, srcRef, _ := buildCopySource(t, seed)
				pm, src, _ := buildCopySource(t, seed)
				ref := runCopy(t, pmRef, srcRef, c.spare, c.hookFail, referenceCopy)
				got := runCopy(t, pm, src, c.spare, c.hookFail, copyLeaves)
				if err := got.diff(ref); err != nil {
					t.Errorf("seed %d spare=%d hookFail=%d: %v", seed, c.spare, c.hookFail, err)
				}
				if k < steps && ref.err == nil {
					t.Errorf("seed %d spare=%d hookFail=%d: copy did not fail", seed, c.spare, c.hookFail)
				}
				if ref.err != nil && ref.n > 1 && ref.n < full.n {
					midCopy++
				}
			}
		}
	}
	if midCopy == 0 {
		t.Error("no failure landed partway through a copy")
	}
}

// TestStage1VisitStopsWhenFnReturnsFalse: a false from fn ends the whole
// walk, not just the loop over the leaf's own table, so a copy loop that
// stops at its first failure attempts no leaf after it.
func TestStage1VisitStopsWhenFnReturnsFalse(t *testing.T) {
	pm := newTestPhys(t)
	s1, err := NewStage1(pm, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, va := range []VA{0x1000, 0x2000, 0x40_0000, 0x4000_0000, TTBR1Base} {
		if err := s1.Map(va, PA(0x1000), 0); err != nil {
			t.Fatal(err)
		}
	}
	for stopAt := 1; stopAt <= 5; stopAt++ {
		calls := 0
		if err := s1.Visit(func(VA, uint64, uint64) bool {
			calls++
			return calls < stopAt
		}); err != nil {
			t.Fatal(err)
		}
		if calls != stopAt {
			t.Errorf("fn returned false on call %d but was called %d times", stopAt, calls)
		}
	}
}
