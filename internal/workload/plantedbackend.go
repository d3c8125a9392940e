package workload

import (
	"encoding/binary"
	"fmt"

	"lightzone/internal/arm64"
	"lightzone/internal/core"
	"lightzone/internal/kernel"
	"lightzone/internal/mem"
	"lightzone/internal/verify"
)

// Per-backend planted-attack batteries. The substrate-invariant attacks
// (W-xor-X flip, smuggled word, TLB forgery, CFG smuggling) are re-planted
// on machines running each backend — the catching checker is the same, but
// the machine it must catch it on is not. The substrate-specific attacks
// target each backend's own bookkeeping: overlay-key retags where lightzone
// has gate tampering, granule-delegation violations where lightzone has
// TTBRTab tampering.

// Substrate-invariant attacks, parameterized by the backend whose clean
// machine they are planted on.

// attackWXFlip flips a sanitizer-admitted executable page writable, as a
// kernel-write primitive would after admission.
func attackWXFlip(backend string) plantedAttack {
	return plantedAttack{
		name: "wx-flip", checker: "wx-audit",
		build: func(plat Platform) (*Env, uint64, uint64, error) {
			env, lp, err := plantedCleanBackend(plat, backend)
			if err != nil {
				return nil, 0, 0, err
			}
			va, _, err := plantedExecPage(lp)
			if err != nil {
				return nil, 0, 0, err
			}
			d0, _ := lp.PageTable(0)
			found, err := d0.S1.UpdateLeaf(va, func(d uint64) uint64 {
				return d &^ (mem.AttrPXN | mem.AttrAPRO)
			})
			if err != nil || !found {
				return nil, 0, 0, fmt.Errorf("flip leaf %v: found=%v err=%v", va, found, err)
			}
			return env, uint64(va), 0, nil
		},
	}
}

// attackSmuggledWord smuggles a sensitive word into an already-admitted
// executable page by writing the frame directly (a DMA-style store the
// emulated W-xor-X fault path never sees).
func attackSmuggledWord(backend string) plantedAttack {
	return plantedAttack{
		name: "smuggled-word", checker: "sanitizer-sweep",
		build: func(plat Platform) (*Env, uint64, uint64, error) {
			env, lp, err := plantedCleanBackend(plat, backend)
			if err != nil {
				return nil, 0, 0, err
			}
			va, real, err := plantedExecPage(lp)
			if err != nil {
				return nil, 0, 0, err
			}
			const off = 0x40
			var buf [4]byte
			binary.LittleEndian.PutUint32(buf[:], arm64.TLBIVMALLE1())
			if err := env.M.PM.Write(real+off, buf[:]); err != nil {
				return nil, 0, 0, err
			}
			return env, uint64(va) + off, 0, nil
		},
	}
}

// attackTLBTamper forges a TLB entry whose output frame differs from what
// the page tables derive — a TOCTTOU-style stale translation.
func attackTLBTamper(backend string) plantedAttack {
	return plantedAttack{
		name: "tlb-tamper", checker: "cache-coherence",
		build: func(plat Platform) (*Env, uint64, uint64, error) {
			env, lp, err := plantedCleanBackend(plat, backend)
			if err != nil {
				return nil, 0, 0, err
			}
			va, real, err := plantedExecPage(lp)
			if err != nil {
				return nil, 0, 0, err
			}
			d0, _ := lp.PageTable(0)
			res, err := d0.S1.Walk(va)
			if err != nil || !res.Found {
				return nil, 0, 0, fmt.Errorf("walk %v: %v", va, err)
			}
			env.M.CPU.TLB.Insert(lp.VM().VMID, 0, va, mem.TLBEntry{
				PABase:     real + mem.PageSize,
				S1Desc:     res.Desc,
				BlockShift: mem.PageShift,
			})
			return env, uint64(va), 0, nil
		},
	}
}

// attackReachableTLBI plants a reachable-but-never-executed TLBI under the
// SanNone ablation: the sweep is off, only the CFG checker can see it — and
// it must still leave the identical word in the literal pool alone.
func attackReachableTLBI(backend string) plantedAttack {
	return plantedAttack{
		name: "reachable-tlbi", checker: "cfg-reachability",
		build: func(plat Platform) (*Env, uint64, uint64, error) {
			env, labels, err := plantedCFGMachine(plat, backend)
			if err != nil {
				return nil, 0, 0, err
			}
			return env, labels["tlbi"], labels["pool"], nil
		},
	}
}

// attackTTBR0Write hides a raw TTBR0_EL1 write from execution but not from
// the CFG. Under lightzone, gates write TTBR0 legally, so the cell is named
// for the write outside a gate; under overlay and granule there is no gate
// for a TTBR0 write to be legal in, and still only the CFG can see the
// never-executed instance.
func attackTTBR0Write(backend string) plantedAttack {
	name := "ttbr0-write"
	if backend == "lightzone" {
		name = "ttbr0-write-outside-gate"
	}
	return plantedAttack{
		name: name, checker: "cfg-reachability",
		build: func(plat Platform) (*Env, uint64, uint64, error) {
			env, labels, err := plantedCFGMachine(plat, backend)
			if err != nil {
				return nil, 0, 0, err
			}
			return env, labels["msr"], labels["pool"], nil
		},
	}
}

// overlayVictim picks the lowest-addressed keyed page of the process (the
// battery's deterministic tamper target) and returns its base table.
func overlayVictim(lp *core.LZProc) (mem.VA, int, *core.DomainPGT, error) {
	keys := lp.OverlayPageKeys()
	if len(keys) == 0 {
		return 0, 0, nil, fmt.Errorf("no overlay-keyed pages")
	}
	var va mem.VA
	first := true
	for v := range keys {
		if first || v < va {
			va, first = v, false
		}
	}
	d0, ok := lp.PageTable(0)
	if !ok {
		return 0, 0, nil, fmt.Errorf("base page table missing")
	}
	return va, keys[va], d0, nil
}

const overlayKeyAttrMask = uint64(mem.OverlayKeyMax) << mem.OverlayKeyShift

// plantedOverlayAttacks is the overlay-backend battery: the three
// key-discipline attacks plus the substrate-invariant four.
func plantedOverlayAttacks() []plantedAttack {
	retag := func(name string, newKey func(old int, granted []int) int) plantedAttack {
		return plantedAttack{
			name: name, checker: "overlay-keys",
			build: func(plat Platform) (*Env, uint64, uint64, error) {
				env, lp, err := plantedCleanBackend(plat, "overlay")
				if err != nil {
					return nil, 0, 0, err
				}
				va, key, d0, err := overlayVictim(lp)
				if err != nil {
					return nil, 0, 0, err
				}
				k := newKey(key, lp.OverlayGranted())
				found, err := d0.S1.UpdateLeaf(va, func(d uint64) uint64 {
					return d&^overlayKeyAttrMask | mem.OverlayKeyAttr(k)
				})
				if err != nil || !found {
					return nil, 0, 0, fmt.Errorf("retag %v: found=%v err=%v", va, found, err)
				}
				return env, uint64(va), 0, nil
			},
		}
	}
	return []plantedAttack{
		// Retag a keyed page to another domain's granted key — the overlay
		// form of handing one domain's memory to another.
		retag("key-retag", func(old int, granted []int) int {
			for _, g := range granted {
				if g != old {
					return g
				}
			}
			return old + 1
		}),
		// Retag to a key lz_alloc never granted.
		retag("ungranted-key", func(int, []int) int { return 200 }),
		{
			// Strip the protected marker while keeping the key: the module's
			// fault classification would no longer recognize the page.
			name: "marker-strip", checker: "overlay-keys",
			build: func(plat Platform) (*Env, uint64, uint64, error) {
				env, lp, err := plantedCleanBackend(plat, "overlay")
				if err != nil {
					return nil, 0, 0, err
				}
				va, _, d0, err := overlayVictim(lp)
				if err != nil {
					return nil, 0, 0, err
				}
				found, err := d0.S1.UpdateLeaf(va, func(d uint64) uint64 {
					return d &^ mem.AttrSWLZProt
				})
				if err != nil || !found {
					return nil, 0, 0, fmt.Errorf("strip %v: found=%v err=%v", va, found, err)
				}
				return env, uint64(va), 0, nil
			},
		},
		attackWXFlip("overlay"),
		attackSmuggledWord("overlay"),
		attackTTBR0Write("overlay"),
		attackReachableTLBI("overlay"),
		attackTLBTamper("overlay"),
	}
}

// plantedGranuleAttacks is the granule-backend battery: the three
// delegation-discipline attacks plus the substrate-invariant four.
func plantedGranuleAttacks() []plantedAttack {
	return []plantedAttack{
		{
			// Map zone 1's delegated granule into zone 2's table with the
			// protected marker — a cross-zone alias of delegated memory.
			name: "cross-zone-alias", checker: "granule-state",
			build: func(plat Platform) (*Env, uint64, uint64, error) {
				env, lp, err := plantedCleanBackend(plat, "granule")
				if err != nil {
					return nil, 0, 0, err
				}
				va := DomainVA(0) // protected by zone 1 in the clean run
				d1, ok1 := lp.PageTable(1)
				d2, ok2 := lp.PageTable(2)
				if !ok1 || !ok2 {
					return nil, 0, 0, fmt.Errorf("zone tables missing")
				}
				res, err := d1.S1.Walk(va)
				if err != nil || !res.Found {
					return nil, 0, 0, fmt.Errorf("victim %v not mapped in zone 1: %v", va, err)
				}
				attrs := res.Desc &^ (mem.OAMask | mem.DescValid | mem.DescTable | mem.AttrAF)
				if err := d2.S1.Map(va, mem.PA(res.Desc&mem.OAMask), attrs); err != nil {
					return nil, 0, 0, err
				}
				return env, uint64(va), 0, nil
			},
		},
		{
			// Tag an ordinary shared page zone-protected without any
			// delegation backing it.
			name: "undelegated-tag", checker: "granule-state",
			build: func(plat Platform) (*Env, uint64, uint64, error) {
				env, lp, err := plantedCleanBackend(plat, "granule")
				if err != nil {
					return nil, 0, 0, err
				}
				d1, ok := lp.PageTable(1)
				if !ok {
					return nil, 0, 0, fmt.Errorf("zone 1 table missing")
				}
				va := mem.VA(kernel.DataBase)
				found, err := d1.S1.UpdateLeaf(va, func(d uint64) uint64 {
					return d | mem.AttrSWLZProt
				})
				if err != nil || !found {
					return nil, 0, 0, fmt.Errorf("tag %v: found=%v err=%v", va, found, err)
				}
				return env, uint64(va), 0, nil
			},
		},
		{
			// Strip the protection and ASID tagging from a delegated
			// granule's own mapping: delegated memory becomes reachable
			// through an unprotected global mapping.
			name: "unprotected-alias", checker: "granule-state",
			build: func(plat Platform) (*Env, uint64, uint64, error) {
				env, lp, err := plantedCleanBackend(plat, "granule")
				if err != nil {
					return nil, 0, 0, err
				}
				va := DomainVA(0)
				d1, ok := lp.PageTable(1)
				if !ok {
					return nil, 0, 0, fmt.Errorf("zone 1 table missing")
				}
				found, err := d1.S1.UpdateLeaf(va, func(d uint64) uint64 {
					return d &^ (mem.AttrSWLZProt | mem.AttrNG)
				})
				if err != nil || !found {
					return nil, 0, 0, fmt.Errorf("strip %v: found=%v err=%v", va, found, err)
				}
				return env, uint64(va), 0, nil
			},
		},
		attackWXFlip("granule"),
		attackSmuggledWord("granule"),
		attackTTBR0Write("granule"),
		attackReachableTLBI("granule"),
		attackTLBTamper("granule"),
	}
}

// plantedAttacksFor returns the battery of one backend.
func plantedAttacksFor(backend string) ([]plantedAttack, error) {
	switch backend {
	case "lightzone":
		return plantedAttacks(), nil
	case "overlay":
		return plantedOverlayAttacks(), nil
	case "granule":
		return plantedGranuleAttacks(), nil
	}
	return nil, fmt.Errorf("no planted battery for backend %q", backend)
}

// PlantedSweep runs a backend's planted-attack battery, one fleet cell per
// attack. Each cell must be caught by its designated checker at the exact
// planted VA, and the literal-pool control word must never be flagged.
// Missing either is an error, not a result row.
func (f *Fleet) PlantedSweep(plat Platform, backend string) ([]PlantedResult, error) {
	attacks, err := plantedAttacksFor(backend)
	if err != nil {
		return nil, err
	}
	out := make([]PlantedResult, len(attacks))
	err = f.Run(len(attacks), func(i int) error {
		pa := attacks[i]
		env, va, absent, err := pa.build(plat)
		if err != nil {
			return fmt.Errorf("%s: %w", pa.name, err)
		}
		rep, err := verify.RunMachine(env.M, env.LZ)
		if err != nil {
			return fmt.Errorf("%s: %w", pa.name, err)
		}
		res := PlantedResult{Name: pa.name, Checker: pa.checker, VA: va, Total: len(rep.Findings)}
		for _, fd := range rep.Findings {
			if absent != 0 && fd.VA == absent {
				return findingsf("%s: unreachable word at %#x falsely flagged: %s", pa.name, absent, fd.Detail)
			}
			if !res.Caught && fd.Checker == pa.checker && fd.VA == va {
				res.Caught, res.Detail = true, fd.Detail
			}
		}
		if !res.Caught {
			return findingsf("%s: expected %s finding at %#x; verifier reported %d findings",
				pa.name, pa.checker, va, len(rep.Findings))
		}
		out[i] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
