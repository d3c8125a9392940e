package verify

import (
	"encoding/binary"
	"hash/maphash"

	"lightzone/internal/core"
	"lightzone/internal/mem"
)

// Memo makes repeated verification of one machine incremental. The
// chokepoint observer (-invariants mode) re-runs the whole registry after
// every security-state mutation, but a mutation touches one domain, one
// page or one TTBRTab slot; the memo lets the expensive checkers re-prove
// only what changed. It holds three content-addressed caches:
//
//   - cfg-reachability: one entry per domain, keyed by the policy, the
//     backend, every executable mapping's VA, size and bytes, and the
//     domain's entry list; the value is the domain's flagged reachable
//     words, before the per-process dedup.
//   - sanitizer-sweep: one entry per executable mapping, keyed by the
//     policy and the mapping's bytes; the value is the violations as
//     offsets into the mapping.
//   - gate-semantics: one entry per gate proof, keyed by every proof input
//     that is not an oracle read, and valid only while each oracle query
//     the proof made still gets the same answer (see gateProof).
//
// A cached value is exactly what the slow path computes from the same
// inputs, and findings are assembled in the same order, so memoised reports
// are byte-identical to fresh ones. Each cache keeps only the entries the
// previous run read or wrote, so the memo holds at most one run's working
// set. A Memo belongs to one machine and is not safe for concurrent use.
type Memo struct {
	seed    maphash.Seed
	scratch []byte

	// sums memoises, for the current run only, the content hash of each
	// executable frame: domain tables share their text frames, so each
	// frame is read and hashed once per run however many domains map it.
	sums map[frameKey]frameSum

	cfg   cache[uint64, []Finding]
	san   cache[sanKey, []Finding]
	gates cache[uint64, *gateProof]

	// Slow-path executions, for tests that pin what a run recomputed.
	cfgBuilds, sanSweeps, gateProofs int
}

// NewMemo creates an empty checker memo.
func NewMemo() *Memo {
	return &Memo{
		seed:  maphash.MakeSeed(),
		sums:  make(map[frameKey]frameSum),
		cfg:   newCache[uint64, []Finding](),
		san:   newCache[sanKey, []Finding](),
		gates: newCache[uint64, *gateProof](),
	}
}

// cache is a two-generation map: lookups promote an entry from the
// previous run into the current one, and endRun drops whatever the run
// did not touch.
type cache[K comparable, V any] struct {
	prev, cur map[K]V
}

func newCache[K comparable, V any]() cache[K, V] {
	return cache[K, V]{prev: make(map[K]V), cur: make(map[K]V)}
}

func (c *cache[K, V]) get(k K) (V, bool) {
	if v, ok := c.cur[k]; ok {
		return v, true
	}
	v, ok := c.prev[k]
	if ok {
		c.cur[k] = v
	}
	return v, ok
}

func (c *cache[K, V]) put(k K, v V) { c.cur[k] = v }

func (c *cache[K, V]) endRun() {
	c.prev, c.cur = c.cur, c.prev
	clear(c.cur)
}

// endRun closes one verification run.
func (mo *Memo) endRun() {
	clear(mo.sums)
	mo.cfg.endRun()
	mo.san.endRun()
	mo.gates.endRun()
}

type frameKey struct {
	real mem.PA
	size uint64
}

type frameSum struct {
	sum uint64
	err error // the frame is unreadable: nothing keyed on it is cached
}

type sanKey struct {
	policy core.SanPolicy
	sum    uint64
}

// frameSum returns the length-prefixed content hash of the frame behind an
// executable mapping, reading it at most once per run.
func (mo *Memo) frameSum(s *Snapshot, m Mapping) frameSum {
	k := frameKey{m.Real, m.Size}
	if fs, ok := mo.sums[k]; ok {
		return fs
	}
	var fs frameSum
	if buf, err := mo.read(s, m); err != nil {
		fs.err = err
	} else {
		h := mo.hash()
		hashU64(h, m.Size)
		h.Write(buf)
		fs.sum = h.Sum64()
	}
	mo.sums[k] = fs
	return fs
}

// read fills the memo's scratch buffer with a mapping's bytes. The result
// is only valid until the next read.
func (mo *Memo) read(s *Snapshot, m Mapping) ([]byte, error) {
	if uint64(cap(mo.scratch)) < m.Size {
		mo.scratch = make([]byte, m.Size)
	}
	buf := mo.scratch[:m.Size]
	return buf, s.M.PM.Read(m.Real, buf)
}

// hash returns a fresh hasher under the memo's seed.
func (mo *Memo) hash() *maphash.Hash {
	h := new(maphash.Hash)
	h.SetSeed(mo.seed)
	return h
}

func hashU64(h *maphash.Hash, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	h.Write(b[:])
}

func hashString(h *maphash.Hash, v string) {
	hashU64(h, uint64(len(v)))
	h.WriteString(v)
}

func hashBool(h *maphash.Hash, v bool) {
	if v {
		hashU64(h, 1)
	} else {
		hashU64(h, 0)
	}
}

// RunMemo executes the checker registry over the snapshot, reusing mo's
// results from earlier runs on the same machine wherever their inputs are
// unchanged.
func RunMemo(s *Snapshot, mo *Memo) Report {
	s.memo = mo
	defer mo.endRun()
	rep := Report{Procs: len(s.Procs)}
	if s.M != nil && s.M.Prof != nil {
		rep.Machine = s.M.Prof.Name
	}
	for _, c := range CheckersFor(s.BackendName()) {
		found := c.Run(s)
		rep.Checkers = append(rep.Checkers, CheckerResult{Name: c.Name, Findings: len(found)})
		rep.Findings = append(rep.Findings, found...)
	}
	return rep
}
