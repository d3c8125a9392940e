package verify

import (
	"lightzone/internal/core"
	"lightzone/internal/hyp"
	"lightzone/internal/mem"
)

// CaptureMemo is Capture through the memo's capture cache, as
// RunMachineMemo captures.
func CaptureMemo(m *hyp.Machine, lz *core.LightZone, mo *Memo) (*Snapshot, error) {
	return capture(m, lz, mo)
}

// SlowPaths reports how many times the memo fell back to building a CFG,
// sweeping a mapping and proving a gate.
func (mo *Memo) SlowPaths() (cfgBuilds, sanSweeps, gateProofs int) {
	return mo.cfgBuilds, mo.sanSweeps, mo.gateProofs
}

// Walks reports how many stage-1 tables the memo's captures walked rather
// than reused.
func (mo *Memo) Walks() int { return mo.walks }

// Held reports how many entries the memo's caches hold.
func (mo *Memo) Held() int {
	return len(mo.caps.prev) + len(mo.caps.cur) +
		len(mo.cfg.prev) + len(mo.cfg.cur) + len(mo.san.prev) + len(mo.san.cur) +
		len(mo.gates.prev) + len(mo.gates.cur)
}

// HoldsCapture reports whether the memo holds a capture of the stage-1
// table rooted at root.
func (mo *Memo) HoldsCapture(root mem.PA) bool {
	_, prev := mo.caps.prev[root]
	_, cur := mo.caps.cur[root]
	return prev || cur
}
