package kernel

import (
	"strings"
	"testing"

	"lightzone/internal/arm64"
	"lightzone/internal/cpu"
	"lightzone/internal/mem"
)

func newTestAS(t *testing.T) *AddressSpace {
	t.Helper()
	pm := mem.NewPhysMem(128 << 20)
	as, err := NewAddressSpace(pm, 1)
	if err != nil {
		t.Fatal(err)
	}
	return as
}

func TestVMAOverlapRejected(t *testing.T) {
	as := newTestAS(t)
	if err := as.AddVMA(VMA{Start: 0x1000, End: 0x5000, Prot: ProtRead}); err != nil {
		t.Fatal(err)
	}
	if err := as.AddVMA(VMA{Start: 0x4000, End: 0x8000, Prot: ProtRead}); err == nil {
		t.Error("overlapping VMA accepted")
	}
	if err := as.AddVMA(VMA{Start: 0x5000, End: 0x8000, Prot: ProtRead}); err != nil {
		t.Errorf("adjacent VMA rejected: %v", err)
	}
}

func TestVMAValidation(t *testing.T) {
	as := newTestAS(t)
	for _, v := range []VMA{
		{Start: 0x2000, End: 0x1000}, // inverted
		{Start: 0x1001, End: 0x2000}, // unaligned start
		{Start: 0x1000, End: 0x2001}, // unaligned end
		{Start: 0x1000, End: 0x1000}, // empty
	} {
		if err := as.AddVMA(v); err == nil {
			t.Errorf("bad VMA accepted: %+v", v)
		}
	}
}

func TestFindVMABinarySearch(t *testing.T) {
	as := newTestAS(t)
	for i := 0; i < 16; i++ {
		start := mem.VA(0x10000 + i*0x10000)
		if err := as.AddVMA(VMA{Start: start, End: start + 0x1000, Prot: ProtRead, Name: "r"}); err != nil {
			t.Fatal(err)
		}
	}
	if v := as.FindVMA(0x50000); v == nil || v.Start != 0x50000 {
		t.Errorf("FindVMA(0x50000) = %+v", v)
	}
	if v := as.FindVMA(0x50800); v == nil {
		t.Error("interior address missed")
	}
	if v := as.FindVMA(0x51000); v != nil {
		t.Errorf("end-exclusive violated: %+v", v)
	}
	if v := as.FindVMA(0x9000); v != nil {
		t.Errorf("gap hit: %+v", v)
	}
}

func TestRemoveVMASplitsRegions(t *testing.T) {
	as := newTestAS(t)
	if err := as.AddVMA(VMA{Start: 0x10000, End: 0x20000, Prot: ProtRead | ProtWrite, Name: "big"}); err != nil {
		t.Fatal(err)
	}
	if err := as.EnsureMapped(0x10000, 0x10000); err != nil {
		t.Fatal(err)
	}
	dataBefore := as.DataBytes
	// Punch a hole in the middle.
	if err := as.RemoveVMA(0x14000, 0x18000); err != nil {
		t.Fatal(err)
	}
	if as.FindVMA(0x15000) != nil {
		t.Error("hole still covered")
	}
	if as.FindVMA(0x12000) == nil || as.FindVMA(0x19000) == nil {
		t.Error("split halves lost")
	}
	if as.DataBytes != dataBefore-4*mem.PageSize {
		t.Errorf("DataBytes = %d, want %d", as.DataBytes, dataBefore-4*mem.PageSize)
	}
	// The unmapped pages must be gone from the page table.
	if res, _ := as.S1.Walk(0x15000); res.Found {
		t.Error("hole page still mapped")
	}
	if res, _ := as.S1.Walk(0x12000); !res.Found {
		t.Error("kept page lost")
	}
}

// A hole punched in the middle of the first VMA splits it in two; the
// VMAs after it must survive the split.
func TestRemoveVMASplitKeepsLaterVMAs(t *testing.T) {
	as := newTestAS(t)
	for _, v := range []VMA{
		{Start: 0x10000, End: 0x14000, Prot: ProtRead, Name: "a"},
		{Start: 0x20000, End: 0x22000, Prot: ProtRead, Name: "b"},
		{Start: 0x30000, End: 0x32000, Prot: ProtRead, Name: "c"},
	} {
		if err := as.AddVMA(v); err != nil {
			t.Fatal(err)
		}
	}
	if err := as.RemoveVMA(0x11000, 0x12000); err != nil {
		t.Fatal(err)
	}
	want := []VMA{
		{Start: 0x10000, End: 0x11000, Prot: ProtRead, Name: "a"},
		{Start: 0x12000, End: 0x14000, Prot: ProtRead, Name: "a"},
		{Start: 0x20000, End: 0x22000, Prot: ProtRead, Name: "b"},
		{Start: 0x30000, End: 0x32000, Prot: ProtRead, Name: "c"},
	}
	got := as.VMAs()
	if len(got) != len(want) {
		t.Fatalf("VMAs after split = %+v, want %+v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("VMA %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	for _, va := range []mem.VA{0x21000, 0x31000} {
		if as.FindVMA(va) == nil {
			t.Errorf("VMA at %v lost by the split", va)
		}
	}
}

func TestRemoveVMATrimsEdges(t *testing.T) {
	as := newTestAS(t)
	if err := as.AddVMA(VMA{Start: 0x10000, End: 0x14000, Prot: ProtRead}); err != nil {
		t.Fatal(err)
	}
	if err := as.RemoveVMA(0x10000, 0x12000); err != nil {
		t.Fatal(err)
	}
	if as.FindVMA(0x11000) != nil || as.FindVMA(0x13000) == nil {
		t.Error("head trim wrong")
	}
	if err := as.RemoveVMA(0x13000, 0x14000); err != nil {
		t.Fatal(err)
	}
	if as.FindVMA(0x13000) != nil {
		t.Error("tail trim wrong")
	}
}

func TestReadWriteVAAcrossPages(t *testing.T) {
	as := newTestAS(t)
	if err := as.AddVMA(VMA{Start: 0x10000, End: 0x13000, Prot: ProtRead | ProtWrite}); err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 2*mem.PageSize+100)
	for i := range data {
		data[i] = byte(i * 7)
	}
	if err := as.WriteVA(0x10800, data); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if err := as.ReadVA(0x10800, got); err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if got[i] != data[i] {
			t.Fatalf("byte %d differs", i)
		}
	}
}

func TestProtString(t *testing.T) {
	if s := (ProtRead | ProtWrite | ProtExec).String(); s != "rwx" {
		t.Errorf("rwx = %q", s)
	}
	if s := ProtRead.String(); s != "r--" {
		t.Errorf("r = %q", s)
	}
	if s := Prot(0).String(); s != "---" {
		t.Errorf("none = %q", s)
	}
}

func TestUnhandledFatalSignalKills(t *testing.T) {
	prof := arm64.ProfileCortexA55()
	pm := mem.NewPhysMem(64 << 20)
	c := cpu.New(prof, pm)
	k := NewKernel("t", prof, pm, c, arm64.EL2)
	a := arm64.NewAsm()
	// kill(getpid, SIGSEGV) with no handler registered: fatal.
	a.MovImm(8, SysGetpid)
	a.Emit(arm64.SVC(0))
	a.MovImm(1, SIGSEGV)
	a.MovImm(8, SysKill)
	a.Emit(arm64.SVC(0))
	a.MovImm(8, SysGetpid) // the delivery point is the next trap
	a.Emit(arm64.SVC(0))
	a.MovImm(8, SysExit)
	a.Emit(arm64.SVC(0))
	words, err := a.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	p, err := k.CreateProcess("fatal", Program{Text: words})
	if err != nil {
		t.Fatal(err)
	}
	if err := k.RunProcess(p, 10000); err != nil {
		t.Fatal(err)
	}
	if !p.Killed || !strings.Contains(p.KillMsg, "fatal signal") {
		t.Errorf("killed=%v msg=%q", p.Killed, p.KillMsg)
	}
}

func TestNanosleepChargesCycles(t *testing.T) {
	prof := arm64.ProfileCortexA55()
	pm := mem.NewPhysMem(64 << 20)
	c := cpu.New(prof, pm)
	k := NewKernel("t", prof, pm, c, arm64.EL2)
	a := arm64.NewAsm()
	a.MovImm(0, 100000)
	a.MovImm(8, SysNanosleep)
	a.Emit(arm64.SVC(0))
	a.MovImm(8, SysExit)
	a.Emit(arm64.SVC(0))
	words, err := a.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	p, err := k.CreateProcess("sleep", Program{Text: words})
	if err != nil {
		t.Fatal(err)
	}
	if err := k.RunProcess(p, 1000); err != nil {
		t.Fatal(err)
	}
	if c.Cycles < 100000 {
		t.Errorf("nanosleep charged only %d cycles", c.Cycles)
	}
}

func TestMmapGapAllocation(t *testing.T) {
	prof := arm64.ProfileCortexA55()
	pm := mem.NewPhysMem(128 << 20)
	c := cpu.New(prof, pm)
	k := NewKernel("t", prof, pm, c, arm64.EL2)
	a := arm64.NewAsm()
	// Two hint-less mmaps must land at distinct, non-overlapping spots.
	a.MovImm(0, 0)
	a.MovImm(1, 3*mem.PageSize)
	a.MovImm(2, uint64(ProtRead|ProtWrite))
	a.MovImm(8, SysMmap)
	a.Emit(arm64.SVC(0))
	a.Emit(arm64.MOVReg(19, 0))
	a.MovImm(0, 0)
	a.MovImm(1, mem.PageSize)
	a.MovImm(2, uint64(ProtRead|ProtWrite))
	a.MovImm(8, SysMmap)
	a.Emit(arm64.SVC(0))
	a.Emit(arm64.MOVReg(20, 0))
	a.MovImm(8, SysExit)
	a.Emit(arm64.SVC(0))
	words, err := a.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	p, err := k.CreateProcess("mmap", Program{Text: words})
	if err != nil {
		t.Fatal(err)
	}
	if err := k.RunProcess(p, 10000); err != nil {
		t.Fatal(err)
	}
	first, second := c.R(19), c.R(20)
	if first == 0 || second == 0 {
		t.Fatalf("mmap returned %#x, %#x", first, second)
	}
	if second < first+3*mem.PageSize {
		t.Errorf("second mapping %#x overlaps first %#x", second, first)
	}
}

func TestBrkGrowsHeap(t *testing.T) {
	k := newTestKernel(t)
	a := arm64.NewAsm()
	svc(a, SysBrk, 0) // query
	a.Emit(arm64.MOVReg(19, 0))
	// Grow by 2 pages and touch the new memory.
	a.Emit(arm64.MOVReg(0, 19))
	a.MovImm(1, 2*mem.PageSize)
	a.Emit(arm64.ADDReg(0, 0, 1))
	a.MovImm(8, SysBrk)
	a.Emit(arm64.SVC(0))
	a.Emit(arm64.MOVReg(20, 0))
	a.MovImm(2, 0x5A)
	a.Emit(arm64.STRImm(2, 19, 8, 3))
	a.Emit(arm64.LDRImm(21, 19, 8, 3))
	svc(a, SysExit, 0)
	p := buildAndRun(t, k, a)
	if p.Killed {
		t.Fatalf("killed: %s", p.KillMsg)
	}
	if k.CPU.R(19) != uint64(HeapBase) {
		t.Errorf("initial brk = %#x", k.CPU.R(19))
	}
	if k.CPU.R(20) != uint64(HeapBase)+2*mem.PageSize {
		t.Errorf("grown brk = %#x", k.CPU.R(20))
	}
	if k.CPU.R(21) != 0x5A {
		t.Errorf("heap readback = %#x", k.CPU.R(21))
	}
}

func TestGetrandomDeterministic(t *testing.T) {
	k := newTestKernel(t)
	a := arm64.NewAsm()
	svc(a, SysGetrandom, uint64(DataBase), 16)
	a.Emit(arm64.MOVReg(19, 0))
	a.MovImm(1, uint64(DataBase))
	a.Emit(arm64.LDRImm(20, 1, 0, 3))
	svc(a, SysExit, 0)
	p := buildAndRun(t, k, a)
	if p.Killed {
		t.Fatalf("killed: %s", p.KillMsg)
	}
	if k.CPU.R(19) != 16 {
		t.Errorf("getrandom returned %d", k.CPU.R(19))
	}
	if k.CPU.R(20) == 0 {
		t.Error("random bytes all zero")
	}
}

func TestClockGettimeMonotonic(t *testing.T) {
	k := newTestKernel(t)
	a := arm64.NewAsm()
	svc(a, SysClockGettime)
	a.Emit(arm64.MOVReg(19, 0))
	svc(a, SysNanosleep, 50000)
	svc(a, SysClockGettime)
	a.Emit(arm64.MOVReg(20, 0))
	svc(a, SysExit, 0)
	p := buildAndRun(t, k, a)
	if p.Killed {
		t.Fatalf("killed: %s", p.KillMsg)
	}
	if k.CPU.R(20) <= k.CPU.R(19) {
		t.Errorf("clock not monotonic: %d then %d", k.CPU.R(19), k.CPU.R(20))
	}
}
