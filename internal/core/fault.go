package core

import (
	"fmt"

	"lightzone/internal/cpu"
	"lightzone/internal/kernel"
	"lightzone/internal/mem"
	"lightzone/internal/trace"
)

// handleLZFault services a forwarded stage-1 fault from a LightZone
// process. This is where the module enforces in-process isolation: demand
// pages unprotected memory into every domain table, runs the sanitizer on
// first execution (W xor X + break-before-make, §6.3), and terminates the
// process on unauthorized access to protected domains.
func (lz *LightZone) handleLZFault(k *kernel.Kernel, t *kernel.Thread, lp *LZProc, s cpu.Syndrome) error {
	lp.chargeModuleEntry(k)
	k.PageFaults++
	c := k.CPU
	va := s.VA
	lz.Trace.Record(c.Cycles, trace.KindPageFault, t.Proc.PID, "%v %v at %v", s.Kind, s.Access, va)

	if mem.IsTTBR1(va) {
		lp.violation(t, fmt.Sprintf("%v access (%v fault) to LightZone-reserved range at %v", s.Access, s.Kind, va))
		return nil
	}
	if !mem.ValidVA(va) {
		lp.violation(t, fmt.Sprintf("non-canonical access at %v", va))
		return nil
	}

	// Resolve the kernel view of the page. A VA with no kernel VMA is a
	// plain segfault-equivalent violation.
	vma := lp.proc.AS.FindVMA(va)
	if vma == nil {
		lp.violation(t, fmt.Sprintf("access to unmapped %v (no VMA)", va))
		return nil
	}
	pa, kdesc, size, err := lp.kernelFrame(va)
	if err != nil {
		return err
	}
	base := mem.PageAlignDown(va)
	if size == mem.HugePageSize {
		base = mem.VA(uint64(va) &^ uint64(mem.HugePageMask))
	}

	cur, haveCur := lp.currentPGT()
	info := lp.protected[base]

	// Execution faults flow through the sanitizer under every policy.
	if s.Access == mem.AccessExec {
		return lz.handleExecFault(k, t, lp, base, pa, size, vma, info, cur)
	}

	if info != nil {
		// The page belongs to a protected domain.
		if info.user {
			// PAN-protected: the page is mapped user in every table;
			// a fault means PAN was set — unauthorized access (§7.2).
			lp.violation(t, fmt.Sprintf("PAN-protected domain %v accessed with PAN set (%v)", base, s.Access))
			return nil
		}
		if !haveCur {
			lp.violation(t, "unrecognized TTBR0 value")
			return nil
		}
		perm, mapped := info.view(cur.ID)
		if !mapped {
			lp.violation(t, fmt.Sprintf("domain page %v not mapped by current page table %d", base, cur.ID))
			return nil
		}
		if s.Access == mem.AccessWrite && perm&PermWrite == 0 {
			lp.violation(t, fmt.Sprintf("write to read-only domain page %v", base))
			return nil
		}
		if s.Access == mem.AccessWrite && lp.exec[base] == execClean {
			// W-xor-X flip on a protected multi-view page: while the
			// page was sanitized-executable, every view was read-only;
			// a legitimate write withdraws execute rights everywhere
			// (break-before-make) and restores the per-view write
			// permissions.
			lp.unmapEverywhere(base)
			lp.traceCodeInval(base, "wx flip to writable (protected views)")
			c.Charge(k.Prof.DSBCost)
			if err := lp.remapProtected(base, pa, size, kdesc, info, false); err != nil {
				return err
			}
			lp.exec[base] = execDirty
			c.Charge(6 * k.Prof.MemAccessCost)
			lz.observe("wx-flip", lp)
			lp.chargeModuleExit(k)
			return c.ERET()
		}
		// Mapped and permitted yet faulting: stale TLB state; flush.
		c.TLB.InvalidateVA(lp.vm.VMID, base)
		lp.chargeModuleExit(k)
		return c.ERET()
	}

	// Unprotected page: W xor X write-back transition, or plain demand
	// paging into every table as a global mapping.
	if st, tracked := lp.exec[base]; tracked && st == execClean && s.Access == mem.AccessWrite {
		return lz.handleWXWriteFault(k, t, lp, base, pa, size, vma, kdesc)
	}
	if s.Access == mem.AccessWrite && (vma.Prot&kernel.ProtWrite == 0 || kdesc&mem.AttrAPRO != 0) {
		lp.violation(t, fmt.Sprintf("write to read-only page %v", base))
		return nil
	}
	if s.Kind == mem.FaultPermission {
		// A permission fault on an unprotected page that is not a
		// W-xor-X transition cannot be repaired by remapping: it is an
		// unprivileged-override access (LDTR/STTR) hitting a kernel
		// page, or similar. Terminate rather than loop.
		lp.violation(t, fmt.Sprintf("%v permission fault on %v", s.Access, base))
		return nil
	}

	attrs := translateAttrs(kdesc) | mem.AttrPXN // PXN until sanitized
	if err := lp.mapUnprotected(base, pa, size, attrs); err != nil {
		return err
	}
	if !lz.Opts.DisableEagerS2 {
		// Eager stage-2 mapping already performed inside mapIntoPGT;
		// charge the combined-fault saving model's map cost only.
		c.Charge(int64(4) * k.Prof.TLBWalkPerLevel)
	}
	c.Charge(6 * k.Prof.MemAccessCost) // PTE writes
	lp.chargeModuleExit(k)
	return c.ERET()
}

// handleExecFault makes a page executable after sanitization: the page is
// scanned for sensitive instructions (Table 3) and mapped execute-only
// (never writable-and-executable), enforcing W xor X (§6.3).
func (lz *LightZone) handleExecFault(k *kernel.Kernel, t *kernel.Thread, lp *LZProc, base mem.VA, pa mem.PA, size uint64, vma *kernel.VMA, info *protInfo, cur *DomainPGT) error {
	c := k.CPU

	execAllowed := vma.Prot&kernel.ProtExec != 0
	if info != nil {
		if info.user {
			execAllowed = execAllowed && info.perm&PermExec != 0
		} else if cur != nil {
			perm, mapped := info.view(cur.ID)
			execAllowed = execAllowed && mapped && perm&PermExec != 0
		} else {
			execAllowed = false
		}
	}
	if !execAllowed {
		lp.violation(t, fmt.Sprintf("execution of non-executable page %v", base))
		return nil
	}

	// Break-before-make: unmap any writable mapping before sanitizing so
	// no store can race the check (TOCTTOU defence).
	lp.unmapEverywhere(base)
	lp.traceCodeInval(base, "break-before-make for sanitize")
	c.Charge(k.Prof.DSBCost)

	data := make([]byte, size)
	if err := k.PM.Read(pa, data); err != nil {
		return err
	}
	c.Charge(SanitizeCost(k.Prof, int(size)))
	lz.Trace.Record(c.Cycles, trace.KindSanitize, t.Proc.PID, "page %v (%d bytes, policy %v)", base, size, lp.policy)
	if v := SanitizePage(data, lp.policy); v != nil {
		lp.violation(t, fmt.Sprintf("sanitizer: %v in page %v", v, base))
		return nil
	}

	// Map executable and not writable (W xor X), globally for
	// unprotected pages or into the owning tables for protected ones.
	kres, err := lp.proc.AS.S1.Walk(base)
	if err != nil || !kres.Found {
		return fmt.Errorf("kernel mapping lost for %v: %w", base, err)
	}
	attrs := translateAttrs(kres.Desc)
	attrs &^= mem.AttrPXN
	attrs |= mem.AttrAPRO // never writable while executable
	if info == nil {
		if err := lp.mapUnprotected(base, pa, size, attrs); err != nil {
			return err
		}
	} else {
		attrs |= mem.AttrSWLZProt
		if info.user {
			attrs |= mem.AttrAPUser
			if err := lp.mapUnprotected(base, pa, size, attrs); err != nil {
				return err
			}
		} else {
			// Per-view mapping: execute rights only in the tables whose
			// overlay grants PermExec; all views read-only while the
			// page is executable (W xor X across aliases).
			if err := lp.remapProtected(base, pa, size, kres.Desc, info, true); err != nil {
				return err
			}
		}
	}
	lp.exec[base] = execClean
	c.Charge(6 * k.Prof.MemAccessCost)
	lz.observe("sanitize-exec", lp)
	lp.chargeModuleExit(k)
	return c.ERET()
}

// handleWXWriteFault flips a sanitized-executable page back to writable
// (and non-executable) when the application legitimately writes to it
// (JIT-style flows). Break-before-make plus TLB invalidation guarantee no
// stale executable mapping survives.
func (lz *LightZone) handleWXWriteFault(k *kernel.Kernel, t *kernel.Thread, lp *LZProc, base mem.VA, pa mem.PA, size uint64, vma *kernel.VMA, kdesc uint64) error {
	c := k.CPU
	if vma.Prot&kernel.ProtWrite == 0 || kdesc&mem.AttrAPRO != 0 {
		lp.violation(t, fmt.Sprintf("write to read-only executable page %v", base))
		return nil
	}
	lp.unmapEverywhere(base) // break
	lp.traceCodeInval(base, "wx flip to writable")
	c.Charge(k.Prof.DSBCost)
	lz.Trace.Record(c.Cycles, trace.KindWXFlip, t.Proc.PID, "page %v executable -> writable", base)
	attrs := translateAttrs(kdesc) | mem.AttrPXN // make: writable, not executable
	attrs &^= mem.AttrAPRO
	if err := lp.mapUnprotected(base, pa, size, attrs); err != nil {
		return err
	}
	lp.exec[base] = execDirty
	c.Charge(6 * k.Prof.MemAccessCost)
	lz.observe("wx-flip", lp)
	lp.chargeModuleExit(k)
	return c.ERET()
}
