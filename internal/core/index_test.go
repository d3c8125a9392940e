package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"lightzone/internal/arm64"
	"lightzone/internal/hyp"
	"lightzone/internal/kernel"
	"lightzone/internal/mem"
)

// memDigest hashes every materialized frame with its address, the way
// replay.Digest.Mem does: two runs that lay out frames differently differ.
func memDigest(pm *mem.PhysMem) string {
	h := sha256.New()
	var b [8]byte
	pm.VisitFrames(func(pa mem.PA, frame *[mem.PageSize]byte) {
		binary.LittleEndian.PutUint64(b[:], uint64(pa))
		h.Write(b[:])
		h.Write(frame[:])
	})
	return hex.EncodeToString(h.Sum(nil))
}

// TestPANAttachFrameLayoutDeterministic: a new domain receives the PAN
// regions of its process in one defined order. Each PAN page below sits
// alone in its 2MB region, so lz_alloc's base-table copy skips it and the
// re-attach allocates the region's leaf table; the frames those tables
// land in must be the same on every run, or a guest's memory digest
// changes from run to run.
func TestPANAttachFrameLayoutDeterministic(t *testing.T) {
	const (
		regions = 8
		base    = 0x4000_0000
	)
	run := func() string {
		m := hyp.NewMachine(arm64.ProfileCortexA55(), 64<<20)
		lz := New(m.Hyp)
		lz.Install(m.Host)
		p, err := m.Host.CreateProcess("pan-layout", kernel.Program{Extra: []kernel.VMA{{
			Start: base, End: base + regions*mem.HugePageSize,
			Prot: kernel.ProtRead | kernel.ProtWrite, Name: "pan",
		}}})
		if err != nil {
			t.Fatal(err)
		}
		lp, err := lz.EnterProcess(m.Host, p, true, SanTTBR)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < regions; i++ {
			if err := lp.Prot(mem.VA(base+uint64(i)*mem.HugePageSize), mem.PageSize, PGTAll, PermRead|PermWrite|PermUser); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := lp.Alloc(); err != nil {
			t.Fatal(err)
		}
		return memDigest(m.Host.PM)
	}
	want := run()
	for i := 1; i < 24; i++ {
		if got := run(); got != want {
			t.Fatalf("run %d: memory digest %s, run 0 had %s", i, got[:12], want[:12])
		}
	}
}

// Index-churn process layout: a heap spanning three 2MB regions, a slab of
// one-page VMAs that munmap removes whole, and one huge-page region, so
// domain tables hold leaf tables and 2MB blocks.
const (
	churnHeapBase  = 0x7000_0000
	churnHeapPages = 1200
	churnSlabBase  = 0x7200_0000
	churnSlabPages = 32
	churnHugeBase  = 0x8000_0000
)

func slabVMA(i int) kernel.VMA {
	start := mem.VA(churnSlabBase + uint64(i)*mem.PageSize)
	return kernel.VMA{Start: start, End: start + mem.PageSize, Prot: kernel.ProtRead | kernel.ProtWrite, Name: "slab"}
}

// newIndexChurnProc enters a process with the churn layout under backend.
func newIndexChurnProc(t *testing.T, backend string) (*LZProc, *kernel.Process) {
	t.Helper()
	m := hyp.NewMachine(arm64.ProfileCortexA55(), 128<<20)
	lz := New(m.Hyp)
	if err := lz.SetBackend(backend); err != nil {
		t.Fatal(err)
	}
	lz.Install(m.Host)
	heapEnd := mem.VA(churnHeapBase + churnHeapPages*mem.PageSize)
	vmas := []kernel.VMA{
		{Start: churnHeapBase, End: heapEnd, Prot: kernel.ProtRead | kernel.ProtWrite, Name: "heap"},
		{Start: churnHugeBase, End: churnHugeBase + mem.HugePageSize, Prot: kernel.ProtRead | kernel.ProtWrite, Name: "huge", Huge: true},
	}
	for i := 0; i < churnSlabPages; i++ {
		vmas = append(vmas, slabVMA(i))
	}
	p, err := m.Host.CreateProcess("index-churn", kernel.Program{Extra: vmas})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.AS.EnsureMapped(churnHeapBase, churnHeapPages*mem.PageSize); err != nil {
		t.Fatal(err)
	}
	if err := p.AS.EnsureMapped(churnSlabBase, churnSlabPages*mem.PageSize); err != nil {
		t.Fatal(err)
	}
	if err := p.AS.EnsureMapped(churnHugeBase, mem.HugePageSize); err != nil {
		t.Fatal(err)
	}
	lp, err := lz.EnterProcess(m.Host, p, true, SanTTBR)
	if err != nil {
		t.Fatal(err)
	}
	return lp, p
}

// checkRegions verifies the protected-region bookkeeping the index relies
// on: every PAN region is listed once in panRegions, every view's table is
// live and lists the region once in held, and every held entry has a view.
func checkRegions(lp *LZProc) error {
	pan := 0
	for base, info := range lp.protected {
		if info.user {
			pan++
			if n := countVA(lp.panRegions, base); len(info.views) != 0 || n != 1 {
				return fmt.Errorf("PAN region %v: %d views, listed %d times", base, len(info.views), n)
			}
			continue
		}
		if len(info.views) == 0 {
			return fmt.Errorf("region %v has no view", base)
		}
		for _, v := range info.views {
			d, ok := lp.PageTable(v.id)
			if !ok {
				return fmt.Errorf("region %v: view of dead table %d", base, v.id)
			}
			if n := countVA(d.held, base); n != 1 {
				return fmt.Errorf("region %v: table %d lists it %d times", base, v.id, n)
			}
		}
	}
	if pan != len(lp.panRegions) {
		return fmt.Errorf("%d PAN regions, %d listed", pan, len(lp.panRegions))
	}
	for _, d := range lp.pgts {
		if d == nil {
			continue
		}
		for _, base := range d.held {
			info := lp.protected[base]
			if info == nil {
				return fmt.Errorf("table %d holds unprotected %v", d.ID, base)
			}
			if _, ok := info.view(d.ID); !ok {
				return fmt.Errorf("table %d holds %v without a view", d.ID, base)
			}
		}
	}
	return nil
}

func countVA(s []mem.VA, va mem.VA) int {
	n := 0
	for _, x := range s {
		if x == va {
			n++
		}
	}
	return n
}

// TestLeafIndexConsistentUnderChurn runs a seeded lz_alloc / lz_prot /
// lz_free / PAN lz_prot / munmap sequence on every backend and, after each
// call, checks the leaf index against a walk of every live domain table
// (each registered frame is the leaf table the walk finds, every leaf table
// is registered, no freed slot holds one) and the region bookkeeping.
func TestLeafIndexConsistentUnderChurn(t *testing.T) {
	for _, backend := range []string{"lightzone", "overlay", "granule"} {
		t.Run(backend, func(t *testing.T) {
			lp, p := newIndexChurnProc(t, backend)
			rng := rand.New(rand.NewSource(17))
			var live []int
			freed := map[int]bool{}
			reused, prots, refused := 0, 0, 0
			page := func() mem.VA {
				if rng.Intn(4) == 0 {
					return slabVMA(rng.Intn(churnSlabPages)).Start
				}
				return mem.VA(churnHeapBase + uint64(rng.Intn(churnHeapPages))*mem.PageSize)
			}
			for call := 0; call < 600; call++ {
				var step string
				var err error
				switch op := rng.Intn(8); {
				case op < 2 || len(live) == 0:
					var id int
					if id, err = lp.backend.Alloc(lp); err == nil {
						if freed[id] {
							reused++
							delete(freed, id)
						}
						live = append(live, id)
					}
					step = fmt.Sprintf("alloc -> %d", id)
				case op < 5:
					id := live[rng.Intn(len(live))]
					va, length := page(), uint64(1+rng.Intn(3))*mem.PageSize
					if rng.Intn(8) == 0 {
						va, length = churnHugeBase, mem.HugePageSize
					}
					perm := PermRead | rng.Intn(2)*PermWrite
					if err = lp.backend.Prot(lp, va, length, id, perm); err == nil {
						prots++
					}
					step = fmt.Sprintf("prot %v+%#x -> %d", va, length, id)
				case op == 5:
					i := rng.Intn(len(live))
					id := live[i]
					if err = lp.backend.Free(lp, id); err == nil {
						live = slices.Delete(live, i, i+1)
						freed[id] = true
					}
					step = fmt.Sprintf("free %d", id)
				case op == 6 && backend == "lightzone":
					va := page()
					err = lp.Prot(va, mem.PageSize, PGTAll, PermRead|PermWrite|PermUser)
					step = fmt.Sprintf("PAN prot %v", va)
				default:
					v := slabVMA(rng.Intn(churnSlabPages))
					if err = p.AS.RemoveVMA(v.Start, v.End); err == nil {
						err = p.AS.AddVMA(v)
					}
					step = fmt.Sprintf("munmap+mmap %v", v.Start)
				}
				if err != nil {
					refused++ // e.g. a granule owned by another zone: the index must stay consistent
				}
				if err := lp.leaves.Check(); err != nil {
					t.Fatalf("call %d (%s): %v", call, step, err)
				}
				if err := checkRegions(lp); err != nil {
					t.Fatalf("call %d (%s): %v", call, step, err)
				}
			}
			t.Logf("%d protections, %d reused ids, %d refused calls", prots, reused, refused)
			if prots == 0 || reused == 0 {
				t.Fatalf("sequence too weak: %d protections, %d reused ids", prots, reused)
			}
		})
	}
}

// BenchmarkProtWithdraw measures a first-protection lz_prot with 512 live
// domain tables: the page is withdrawn from every table, then mapped into
// one. Between iterations, untimed, the page is turned back into a PAN
// region (mapped in every table), so each timed call is a first
// protection that withdraws a present mapping everywhere.
func BenchmarkProtWithdraw(b *testing.B) {
	const domains, heapPages = 512, 64
	m := hyp.NewMachine(arm64.ProfileCortexA55(), 256<<20)
	lz := New(m.Hyp)
	lz.Install(m.Host)
	p, err := m.Host.CreateProcess("withdraw", kernel.Program{Extra: []kernel.VMA{{
		Start: churnHeapBase, End: churnHeapBase + heapPages*mem.PageSize,
		Prot: kernel.ProtRead | kernel.ProtWrite, Name: "heap",
	}}})
	if err != nil {
		b.Fatal(err)
	}
	if err := p.AS.EnsureMapped(churnHeapBase, heapPages*mem.PageSize); err != nil {
		b.Fatal(err)
	}
	lp, err := lz.EnterProcess(m.Host, p, true, SanTTBR)
	if err != nil {
		b.Fatal(err)
	}
	for lp.NumPageTables() < domains {
		if _, err := lp.Alloc(); err != nil {
			b.Fatal(err)
		}
	}
	page := mem.VA(churnHeapBase + mem.PageSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if err := lp.Prot(page, mem.PageSize, PGTAll, PermRead|PermWrite|PermUser); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if err := lp.Prot(page, mem.PageSize, 1+i%(domains-1), PermRead|PermWrite); err != nil {
			b.Fatal(err)
		}
	}
}
