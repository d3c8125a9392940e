package mem

import (
	"fmt"
	"testing"
)

// stageOps is the exported table API common to both stages, over untyped
// input addresses, so one table of cases runs against each stage.
type stageOps struct {
	mapPage    func(addr uint64, pa PA, attrs uint64) error
	mapBlock   func(addr uint64, pa PA, attrs uint64) error
	walk       func(addr uint64) (WalkResult, error)
	unmap      func(addr uint64) (bool, error)
	updateLeaf func(addr uint64, fn func(uint64) uint64) (bool, error)
	visit      func(fn func(addr, desc, size uint64) bool) error
}

func stage1Ops(t *Stage1) stageOps {
	return stageOps{
		mapPage:    func(a uint64, pa PA, attrs uint64) error { return t.Map(VA(a), pa, attrs) },
		mapBlock:   func(a uint64, pa PA, attrs uint64) error { return t.MapBlock(VA(a), pa, attrs) },
		walk:       func(a uint64) (WalkResult, error) { return t.Walk(VA(a)) },
		unmap:      func(a uint64) (bool, error) { return t.Unmap(VA(a)) },
		updateLeaf: func(a uint64, fn func(uint64) uint64) (bool, error) { return t.UpdateLeaf(VA(a), fn) },
		visit: func(fn func(a, d, s uint64) bool) error {
			return t.Visit(func(va VA, d, s uint64) bool { return fn(uint64(va), d, s) })
		},
	}
}

func stage2Ops(t *Stage2) stageOps {
	return stageOps{
		mapPage:    func(a uint64, pa PA, attrs uint64) error { return t.Map(IPA(a), pa, attrs) },
		mapBlock:   func(a uint64, pa PA, attrs uint64) error { return t.MapBlock(IPA(a), pa, attrs) },
		walk:       func(a uint64) (WalkResult, error) { return t.Walk(IPA(a)) },
		unmap:      func(a uint64) (bool, error) { return t.Unmap(IPA(a)) },
		updateLeaf: func(a uint64, fn func(uint64) uint64) (bool, error) { return t.UpdateLeaf(IPA(a), fn) },
		visit: func(fn func(a, d, s uint64) bool) error {
			return t.Visit(func(ipa IPA, d, s uint64) bool { return fn(uint64(ipa), d, s) })
		},
	}
}

// TestStagesRangeAndVisitContract runs the same cases on both stages. An
// address outside a stage's input range (bit 48 set on a stage-1 VA, bit 39
// on a stage-2 IPA) must never act on the in-range address it aliases
// modulo the index bits, at any entry point; and Visit must stop at the
// first false from fn, however many tables remain.
func TestStagesRangeAndVisitContract(t *testing.T) {
	const (
		low    = 0x1000
		lowPA  = PA(0x40000)
		attrs  = AttrAPRO
		second = HugePageSize + 0x1000 // a leaf in the next 2MB region
	)
	stages := []struct {
		name string
		oor  uint64 // first address past the stage's input range
		new  func(pm *PhysMem) stageOps
	}{
		{"stage1", 1 << VABits, func(pm *PhysMem) stageOps {
			s, err := NewStage1(pm, 1)
			if err != nil {
				t.Fatal(err)
			}
			return stage1Ops(s)
		}},
		{"stage2", 1 << IPABits, func(pm *PhysMem) stageOps {
			s, err := NewStage2(pm, 1)
			if err != nil {
				t.Fatal(err)
			}
			return stage2Ops(s)
		}},
	}
	cases := []struct {
		name string
		run  func(ops stageOps, oor uint64) string // "" = pass
	}{
		{"map", func(ops stageOps, oor uint64) string {
			if err := ops.mapPage(oor|low, 0x80000, 0); err == nil {
				return "out-of-range Map succeeded"
			}
			return ""
		}},
		{"map-block", func(ops stageOps, oor uint64) string {
			if err := ops.mapBlock(oor, 4*HugePageSize, 0); err == nil {
				return "out-of-range MapBlock succeeded"
			}
			return ""
		}},
		{"walk", func(ops stageOps, oor uint64) string {
			if res, err := ops.walk(oor | low); err != nil || res.Found {
				return "out-of-range Walk found the low mapping"
			}
			return ""
		}},
		{"unmap", func(ops stageOps, oor uint64) string {
			if found, _ := ops.unmap(oor | low); found {
				return "out-of-range Unmap reported a mapping"
			}
			return ""
		}},
		{"update-leaf", func(ops stageOps, oor uint64) string {
			if found, _ := ops.updateLeaf(oor|low, func(d uint64) uint64 { return d &^ AttrAPRO }); found {
				return "out-of-range UpdateLeaf reported a mapping"
			}
			return ""
		}},
		{"visit-stops", func(ops stageOps, _ uint64) string {
			if err := ops.mapPage(second, 0x81000, 0); err != nil {
				return err.Error()
			}
			calls := 0
			if err := ops.visit(func(uint64, uint64, uint64) bool { calls++; return false }); err != nil {
				return err.Error()
			}
			if calls != 1 {
				return fmt.Sprintf("Visit called fn %d times after a false", calls)
			}
			return ""
		}},
	}
	for _, st := range stages {
		for _, c := range cases {
			t.Run(st.name+"/"+c.name, func(t *testing.T) {
				ops := st.new(NewPhysMem(64 << 20))
				if err := ops.mapPage(low, lowPA, attrs); err != nil {
					t.Fatal(err)
				}
				if msg := c.run(ops, st.oor); msg != "" {
					t.Error(msg)
				}
				res, err := ops.walk(low)
				want := uint64(lowPA) | attrs | DescValid | DescTable | AttrAF
				if err != nil || !res.Found || res.BlockShift != PageShift || res.Desc != want {
					t.Errorf("low mapping disturbed: %+v, %v", res, err)
				}
			})
		}
	}
}
