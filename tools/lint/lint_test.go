package main

import (
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

func lintSource(t *testing.T, src string) []string {
	t.Helper()
	return lintNamed(t, "src.go", src)
}

func lintNamed(t *testing.T, name, src string) []string {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, name, src, 0)
	if err != nil {
		t.Fatal(err)
	}
	return lintFile(fset, f)
}

func TestCyclesWriteFlagged(t *testing.T) {
	probs := lintSource(t, `package core
func bad(c *VCPU) { c.Cycles += 3 }
`)
	if len(probs) != 1 || !strings.Contains(probs[0], "Charge") {
		t.Fatalf("want one Charge violation, got %v", probs)
	}
}

func TestCyclesIncDecFlagged(t *testing.T) {
	probs := lintSource(t, `package cpu
func tick(c *VCPU) { c.Cycles++ }
`)
	if len(probs) != 1 {
		t.Fatalf("want one violation, got %v", probs)
	}
}

func TestChargeAllowed(t *testing.T) {
	probs := lintSource(t, `package cpu
func (c *VCPU) Charge(n int64) { c.Cycles += n }
func (c *VCPU) ChargeInsns(n int64) { c.Cycles += n * c.Prof.InsnCost }
`)
	if len(probs) != 0 {
		t.Fatalf("Charge/ChargeInsns must be allowed, got %v", probs)
	}
}

func TestChargeOutsideCPUFlagged(t *testing.T) {
	// A function merely named Charge in another package gets no exemption.
	probs := lintSource(t, `package core
func Charge(c *VCPU) { c.Cycles += 1 }
`)
	if len(probs) != 1 {
		t.Fatalf("want one violation, got %v", probs)
	}
}

func TestHandlersWriteFlagged(t *testing.T) {
	probs := lintSource(t, `package cpu
func sneak() { handlers[3] = nil }
`)
	if len(probs) != 1 || !strings.Contains(probs[0], "buildHandlers") {
		t.Fatalf("want one handlers violation, got %v", probs)
	}
}

func TestBuildHandlersAllowed(t *testing.T) {
	probs := lintSource(t, `package cpu
func buildHandlers() [4]Handler {
	var handlers [4]Handler
	handlers[0] = nil
	handlers = handlers
	return handlers
}
`)
	if len(probs) != 0 {
		t.Fatalf("buildHandlers must be allowed, got %v", probs)
	}
}

func TestHandlersOutsideCPUIgnored(t *testing.T) {
	// Other packages may have their own unrelated "handlers" locals.
	probs := lintSource(t, `package kernel
func f() { handlers := map[int]int{}; handlers[1] = 2; _ = handlers }
`)
	if len(probs) != 0 {
		t.Fatalf("non-cpu handlers must be ignored, got %v", probs)
	}
}

func TestTLBEntriesConfinedToTLBFile(t *testing.T) {
	// Even a read of the entry map outside tlb.go widens the audit surface.
	probs := lintNamed(t, "stage1.go", `package mem
func peek(t *TLB) int { return len(t.entries) }
`)
	if len(probs) != 1 || !strings.Contains(probs[0], "tlb.go") {
		t.Fatalf("want one confinement violation, got %v", probs)
	}
}

func TestTLBEntriesAllowedInTLBFile(t *testing.T) {
	probs := lintNamed(t, "tlb.go", `package mem
func (t *TLB) size() int { return len(t.entries) }
`)
	if len(probs) != 0 {
		t.Fatalf("tlb.go must own .entries, got %v", probs)
	}
}

func TestMicroTLBConfinedToMicroTLBFile(t *testing.T) {
	probs := lintNamed(t, "exec.go", `package cpu
func fast(c *VCPU) bool { return c.mtlb.enabled }
`)
	if len(probs) != 1 || !strings.Contains(probs[0], "microtlb.go") {
		t.Fatalf("want one confinement violation, got %v", probs)
	}
}

func TestOverlayKeysConfinedToOverlayFile(t *testing.T) {
	// Overlay key records are the overlay backend's private state: even a
	// read from another core file reaches across the Backend interface.
	probs := lintNamed(t, "lzproc.go", `package core
func peek(lp *LZProc) int { return len(lp.okeys) }
`)
	if len(probs) != 1 || !strings.Contains(probs[0], "backend_overlay.go") {
		t.Fatalf("want one confinement violation, got %v", probs)
	}
}

func TestOverlayKeysAllowedInOverlayFile(t *testing.T) {
	probs := lintNamed(t, "backend_overlay.go", `package core
func (b *overlayBackend) keys(lp *LZProc) int { return len(lp.okeys) }
`)
	if len(probs) != 0 {
		t.Fatalf("backend_overlay.go must own .okeys, got %v", probs)
	}
}

func TestGranuleStateConfinedToGranuleFile(t *testing.T) {
	probs := lintNamed(t, "module.go", `package core
func peek(lp *LZProc) bool { return lp.gran != nil }
`)
	if len(probs) != 1 || !strings.Contains(probs[0], "backend_granule.go") {
		t.Fatalf("want one confinement violation, got %v", probs)
	}
}

func TestGateStateConfinedToGateFile(t *testing.T) {
	probs := lintNamed(t, "backend_lightzone.go", `package core
func peek(lp *LZProc) uint64 { return uint64(lp.gateTabPA) }
`)
	if len(probs) != 1 || !strings.Contains(probs[0], "gate.go") {
		t.Fatalf("want one confinement violation, got %v", probs)
	}
}

func TestGateStateAllowedInGateFile(t *testing.T) {
	probs := lintNamed(t, "gate.go", `package core
func (lp *LZProc) gates() uint64 { return uint64(lp.gateTabPA) + uint64(lp.ttbrTabPA) }
`)
	if len(probs) != 0 {
		t.Fatalf("gate.go must own the gate state, got %v", probs)
	}
}

func TestBackendStateOutsideCoreIgnored(t *testing.T) {
	// Other packages may have their own unrelated fields with these names.
	probs := lintNamed(t, "anything.go", `package workload
func f(x *thing) int { return len(x.okeys) + len(x.gran) }
`)
	if len(probs) != 0 {
		t.Fatalf("non-core backend fields must be ignored, got %v", probs)
	}
}

func TestEntriesOutsideMemIgnored(t *testing.T) {
	// Other packages may have their own unrelated entries fields.
	probs := lintNamed(t, "memo.go", `package verify
func f(m *memo) int { return len(m.entries) }
`)
	if len(probs) != 0 {
		t.Fatalf("non-mem entries must be ignored, got %v", probs)
	}
}

func TestBlockProofConfinedToAbsint(t *testing.T) {
	// A BlockProof literal outside the abstract interpreter is an unproven
	// claim wearing a proof's type — only ProveBlock may mint one.
	probs := lintNamed(t, "blockcache.go", `package cpu
func forge() *absint.BlockProof { return &absint.BlockProof{SysregFree: true} }
`)
	if len(probs) != 1 || !strings.Contains(probs[0], "ProveBlock") {
		t.Fatalf("want one BlockProof violation, got %v", probs)
	}
	// The bare-identifier form is caught too.
	probs = lintNamed(t, "anything.go", `package verify
func forge() BlockProof { return BlockProof{} }
`)
	if len(probs) != 1 {
		t.Fatalf("want one BlockProof violation, got %v", probs)
	}
}

func TestBlockProofAllowedInAbsint(t *testing.T) {
	probs := lintNamed(t, "blockproof.go", `package absint
func ProveBlock() *BlockProof { return &BlockProof{SysregFree: true} }
`)
	if len(probs) != 0 {
		t.Fatalf("absint must mint proofs, got %v", probs)
	}
}

func TestProofSlotConfinedToProofAudit(t *testing.T) {
	probs := lintNamed(t, "exec.go", `package cpu
func peek(b *dblock) bool { return b.proof != nil }
`)
	if len(probs) != 1 || !strings.Contains(probs[0], "proofaudit.go") {
		t.Fatalf("want one confinement violation, got %v", probs)
	}
	probs = lintNamed(t, "proofaudit.go", `package cpu
func peek(b *dblock) bool { return b.proof != nil }
`)
	if len(probs) != 0 {
		t.Fatalf("proofaudit.go must own .proof, got %v", probs)
	}
}

func TestEpochsConfinedToBlockCache(t *testing.T) {
	// Epoch bumps are the proof/block invalidation chokepoint; touching the
	// tracker from another cpu file would add an unaudited chokepoint.
	probs := lintNamed(t, "mmu.go", `package cpu
func bump(d *BlockCache) { d.epochs.BumpVA(0) }
`)
	if len(probs) != 1 || !strings.Contains(probs[0], "blockcache.go") {
		t.Fatalf("want one confinement violation, got %v", probs)
	}
	probs = lintNamed(t, "blockcache.go", `package cpu
func bump(d *BlockCache) { d.epochs.BumpVA(0) }
`)
	if len(probs) != 0 {
		t.Fatalf("blockcache.go must own .epochs, got %v", probs)
	}
}

func TestTraceProofConfinedToAbsint(t *testing.T) {
	// A TraceProof literal outside the abstract interpreter is a composed
	// claim nobody composed — only ComposeTrace may mint one.
	probs := lintNamed(t, "trace.go", `package cpu
func forge() *absint.TraceProof { return &absint.TraceProof{PANFree: true} }
`)
	if len(probs) != 1 || !strings.Contains(probs[0], "ComposeTrace") {
		t.Fatalf("want one TraceProof violation, got %v", probs)
	}
	probs = lintNamed(t, "traceproof.go", `package absint
func ComposeTrace() *TraceProof { return &TraceProof{} }
`)
	if len(probs) != 0 {
		t.Fatalf("absint must mint trace proofs, got %v", probs)
	}
}

func TestTraceCacheConfinedToTraceFile(t *testing.T) {
	// Even a read of the trace cache outside trace.go widens the audit
	// surface of the trace compiler's soundness argument.
	probs := lintNamed(t, "exec.go", `package cpu
func hot(c *VCPU) int { return len(c.tcache.traces) }
`)
	if len(probs) != 1 || !strings.Contains(probs[0], "trace.go") {
		t.Fatalf("want one confinement violation, got %v", probs)
	}
	probs = lintNamed(t, "trace.go", `package cpu
func hot(c *VCPU) int { return len(c.tcache.traces) }
`)
	if len(probs) != 0 {
		t.Fatalf("trace.go must own .tcache, got %v", probs)
	}
}
