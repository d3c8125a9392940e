package core

import (
	"fmt"
	"strings"
	"testing"

	"lightzone/internal/arm64"
	"lightzone/internal/hyp"
	"lightzone/internal/kernel"
	"lightzone/internal/mem"
)

// exhaustionHeap spans three 2MB regions, so a domain table copy allocates
// several leaf tables and running out of frames can land between them.
const (
	exhaustionHeapBase  = 0x7000_0000
	exhaustionHeapPages = 1200
)

// newExhaustionProc boots a small machine under backend, maps the heap,
// enters LightZone with scalable isolation and protects one heap page in a
// domain, so the base table holds skip-marked leaves as well.
func newExhaustionProc(t *testing.T, backend string) *LZProc {
	t.Helper()
	m := hyp.NewMachine(arm64.ProfileCortexA55(), 64<<20)
	lz := New(m.Hyp)
	if err := lz.SetBackend(backend); err != nil {
		t.Fatal(err)
	}
	lz.Install(m.Host)
	heapEnd := mem.VA(exhaustionHeapBase + exhaustionHeapPages*mem.PageSize)
	p, err := m.Host.CreateProcess("exhaust", kernel.Program{Extra: []kernel.VMA{
		{Start: exhaustionHeapBase, End: heapEnd, Prot: kernel.ProtRead | kernel.ProtWrite, Name: "heap"},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.AS.EnsureMapped(exhaustionHeapBase, exhaustionHeapPages*mem.PageSize); err != nil {
		t.Fatal(err)
	}
	lp, err := lz.EnterProcess(m.Host, p, true, SanTTBR)
	if err != nil {
		t.Fatal(err)
	}
	zone, err := lp.backend.Alloc(lp)
	if err != nil {
		t.Fatal(err)
	}
	if err := lp.backend.Prot(lp, exhaustionHeapBase+mem.PageSize, mem.PageSize, zone, PermRead|PermWrite); err != nil {
		t.Fatal(err)
	}
	return lp
}

// leaveFrames allocates every free frame but spare, so the next
// allocations run out after spare frames. The spare frames are the lowest
// free ones, or with top the highest: those sit in a 2MB region the
// stage-2 table does not cover yet, so identity-mapping a table frame
// there needs a stage-2 table frame too.
func leaveFrames(t *testing.T, pm *mem.PhysMem, spare int, top bool) {
	t.Helper()
	var drained []mem.PA
	for {
		pa, err := pm.AllocFrame()
		if err != nil {
			break
		}
		drained = append(drained, pa)
	}
	if len(drained) < spare {
		t.Fatalf("only %d free frames, want %d spare", len(drained), spare)
	}
	keep := drained[:spare]
	if top {
		keep = drained[len(drained)-spare:]
	}
	for _, pa := range keep {
		pm.FreeFrame(pa)
	}
}

// populatePerLeaf is the per-leaf base-table copy that populatePGT's
// table-granular copy replaced: Visit the base table, Map each unprotected
// leaf and charge a descriptor load and store for every leaf attempted,
// the failing one included. It returns the number of leaves attempted.
func populatePerLeaf(lp *LZProc, d *DomainPGT) (int, error) {
	n := 0
	var copyErr error
	if err := lp.pgts[0].S1.Visit(func(va mem.VA, desc uint64, size uint64) bool {
		if desc&mem.AttrSWLZProt != 0 {
			return true
		}
		attrs := desc &^ mem.OAMask &^ (mem.DescValid | mem.DescTable | mem.AttrAF)
		if size == mem.HugePageSize {
			copyErr = d.S1.MapBlock(va, mem.PA(desc&mem.OAMask), attrs)
		} else {
			copyErr = d.S1.Map(va, mem.PA(desc&mem.OAMask), attrs)
		}
		n++
		lp.kern.CPU.Charge(2 * lp.kern.Prof.MemAccessCost)
		return copyErr == nil
	}); err != nil {
		return n, err
	}
	if copyErr != nil {
		return n, copyErr
	}
	return n, lp.attachUserPagesTo(d)
}

// allocNoPanic runs the backend's lz_alloc, turning a Go panic into an
// error so the test can report it.
func allocNoPanic(lp *LZProc) (id int, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("lz_alloc panicked: %v", r)
		}
	}()
	return lp.backend.Alloc(lp)
}

// TestAllocExhaustionFailsClosed: lz_alloc on physical memory that runs
// out at every point of the base-table copy returns an error, never a
// panic, and charges exactly the cycles of the per-leaf copy, which charged
// every leaf up to and including the one that failed.
func TestAllocExhaustionFailsClosed(t *testing.T) {
	for _, backend := range []string{"lightzone", "granule"} {
		for _, top := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/top=%v", backend, top), func(t *testing.T) {
				testAllocExhaustion(t, backend, top)
			})
		}
	}
}

func testAllocExhaustion(t *testing.T, backend string, top bool) {
	midCopy, stage2 := 0, 0
	for spare := 0; ; spare++ {
		if spare > 64 {
			t.Fatal("lz_alloc still failing with 64 spare frames")
		}
		lp := newExhaustionProc(t, backend)
		ref := newExhaustionProc(t, backend)
		leaveFrames(t, lp.kern.PM, spare, top)
		leaveFrames(t, ref.kern.PM, spare, top)

		before := lp.kern.CPU.Cycles
		_, err := allocNoPanic(lp)
		got := lp.kern.CPU.Cycles - before
		if err == nil {
			break
		}

		before = ref.kern.CPU.Cycles
		d, refErr := ref.newPGT()
		n := 0
		if refErr == nil {
			n, refErr = populatePerLeaf(ref, d)
		}
		want := ref.kern.CPU.Cycles - before
		if refErr == nil {
			t.Fatalf("spare=%d: lz_alloc failed (%v) where the per-leaf copy succeeded", spare, err)
		}
		if err.Error() != refErr.Error() {
			t.Errorf("spare=%d: error %q, per-leaf copy %q", spare, err, refErr)
		}
		if got != want {
			t.Errorf("spare=%d: lz_alloc charged %d cycles on failure, per-leaf copy %d (%d leaves)", spare, got, want, n)
		}
		if n > 1 {
			midCopy++
		}
		if strings.Contains(err.Error(), "stage-2") {
			stage2++
		}
	}
	if midCopy == 0 {
		t.Error("no exhaustion landed partway through the copy")
	}
	if top && stage2 == 0 {
		t.Error("no exhaustion hit a stage-2 table allocation")
	}
}

// TestAllocExhaustionUnwinds: a failed lz_alloc gives back everything the
// half-built table took. Starting from fully drained memory, every
// failure point of lz_alloc is reached in turn by releasing one frame at a
// time (lowest first, or with top highest first, where identity-mapping a
// table frame at stage 2 needs a stage-2 table frame too); each is hit by
// several calls in a row. Every call must return an
// error (never a panic), the live table count and the live ASID count must
// not move, the id high-water mark may grow by one parked id at most, and
// repeated calls at one failure point must allocate no further frames.
// The lightzone case with prior domains starts at id 512, where lz_alloc
// also needs a fresh TTBRTab page, so its last failure point is
// writeTTBRTab.
func TestAllocExhaustionUnwinds(t *testing.T) {
	for _, c := range []struct {
		backend string
		prior   int // domains allocated before memory is drained
	}{{"lightzone", 0}, {"granule", 0}, {"lightzone", 510}} {
		for _, top := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/prior=%d/top=%v", c.backend, c.prior, top), func(t *testing.T) {
				testAllocUnwinds(t, c.backend, c.prior, top)
			})
		}
	}
}

func testAllocUnwinds(t *testing.T, backend string, prior int, top bool) {
	lp := newExhaustionProc(t, backend)
	for i := 0; i < prior; i++ {
		if _, err := lp.backend.Alloc(lp); err != nil {
			t.Fatalf("prior domain %d: %v", i, err)
		}
	}
	pm := lp.kern.PM
	var drained []mem.PA
	for {
		pa, err := pm.AllocFrame()
		if err != nil {
			break
		}
		drained = append(drained, pa)
	}
	pgts, asids, high := len(lp.pgts), lp.kern.LiveASIDs(), lp.PGTIDHighWater()
	ttbrTabPages := len(lp.ttbrTabPA)
	failures, ttbrTab, stage2 := 0, 0, 0
	for spare := 0; ; spare++ {
		if spare > 64 || spare > len(drained) {
			t.Fatal("lz_alloc still failing with 64 spare frames")
		}
		if spare > 0 {
			next := drained[spare-1]
			if top {
				next = drained[len(drained)-spare]
			}
			pm.FreeFrame(next)
		}
		var used uint64
		var firstErr error
		for call := 0; call < 3; call++ {
			_, err := allocNoPanic(lp)
			if err == nil {
				if call > 0 {
					t.Fatalf("spare=%d: call %d succeeded after call 0 failed (%v)", spare, call, firstErr)
				}
				break
			}
			if strings.Contains(err.Error(), "panicked") {
				t.Fatalf("spare=%d call %d: %v", spare, call, err)
			}
			switch {
			case len(lp.pgts) != pgts:
				t.Fatalf("spare=%d call %d (%v): %d live tables, want %d", spare, call, err, len(lp.pgts), pgts)
			case lp.kern.LiveASIDs() != asids:
				t.Fatalf("spare=%d call %d (%v): %d live ASIDs, want %d", spare, call, err, lp.kern.LiveASIDs(), asids)
			case lp.PGTIDHighWater() > high+1:
				t.Fatalf("spare=%d call %d (%v): id high-water %d, want at most %d", spare, call, err, lp.PGTIDHighWater(), high+1)
			}
			if call == 0 {
				firstErr, used = err, pm.AllocatedBytes()
				failures++
				if strings.Contains(err.Error(), "stage-2") {
					stage2++
				}
				if len(lp.pgts) == pgts && len(lp.ttbrTabPA) == ttbrTabPages && prior > 0 && err == mem.ErrOutOfFrames {
					ttbrTab++
				}
				continue
			}
			if err.Error() != firstErr.Error() {
				t.Errorf("spare=%d call %d: error %q, first call %q", spare, call, err, firstErr)
			}
			if got := pm.AllocatedBytes(); got != used {
				t.Fatalf("spare=%d call %d (%v): %d bytes allocated, %d after the first call", spare, call, err, got, used)
			}
		}
		if firstErr == nil {
			break
		}
	}
	if failures < 3 {
		t.Errorf("only %d failure points reached", failures)
	}
	if top && stage2 == 0 {
		t.Error("no failure hit a stage-2 table allocation")
	}
	if prior > 0 && ttbrTab == 0 {
		t.Error("no failure reached the TTBRTab page allocation")
	}
}
