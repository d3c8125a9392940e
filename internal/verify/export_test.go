package verify

// SlowPaths reports how many times the memo fell back to building a CFG,
// sweeping a mapping and proving a gate.
func (mo *Memo) SlowPaths() (cfgBuilds, sanSweeps, gateProofs int) {
	return mo.cfgBuilds, mo.sanSweeps, mo.gateProofs
}

// Held reports how many entries the memo's caches hold.
func (mo *Memo) Held() int {
	return len(mo.cfg.prev) + len(mo.cfg.cur) + len(mo.san.prev) + len(mo.san.cur) +
		len(mo.gates.prev) + len(mo.gates.cur)
}
