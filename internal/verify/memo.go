package verify

import (
	"encoding/binary"
	"hash/maphash"
	"slices"

	"lightzone/internal/core"
	"lightzone/internal/mem"
)

// Memo makes repeated verification of one machine incremental. The
// chokepoint observer (-invariants mode) re-runs the whole registry after
// every security-state mutation, but a mutation touches one domain, one
// page or one TTBRTab slot; the memo lets the expensive checkers re-prove
// only what changed. It holds four caches:
//
//   - capture: one entry per stage-1 root (each domain table and the TTBR1
//     half), holding the table frames the last walk read, a byte copy of
//     each, and the leaves the walk found. While every recorded frame
//     still holds the recorded bytes, a new walk would read the same
//     frames and find the same leaves, so they are reused (see leaves).
//   - cfg-reachability: one entry per domain content and entry point,
//     keyed by the policy, the backend, every executable mapping's VA,
//     size and bytes, and the entry; the value is the flagged words
//     reachable from that entry. A domain's flags are the union over its
//     entries (see cfgFlags).
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

	caps  cache[mem.PA, *captured]
	cfg   cache[cfgKey, []Finding]
	san   cache[sanKey, []Finding]
	gates cache[uint64, *gateProof]

	// Slow-path executions, for tests that pin what a run recomputed.
	walks, cfgBuilds, sanSweeps, gateProofs int
}

// NewMemo creates an empty checker memo.
func NewMemo() *Memo {
	return &Memo{
		seed:  maphash.MakeSeed(),
		sums:  make(map[frameKey]frameSum),
		caps:  newCache[mem.PA, *captured](),
		cfg:   newCache[cfgKey, []Finding](),
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

// abort forgets what the current run touched: lookups never remove an
// entry from prev, so the cache is back to where the run began.
func (c *cache[K, V]) abort() { clear(c.cur) }

// endRun closes one verification run.
func (mo *Memo) endRun() {
	clear(mo.sums)
	mo.caps.endRun()
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

// captured is one stage-1 table's last recorded walk: the table frames it
// read, in walk order, a byte copy of each (frame i at copies[i*PageSize:]),
// and the leaves it found, with Real and HasReal unresolved. A root seen
// for the first time gets an empty record: frames are copied from its
// second capture on, so a one-shot verification copies no table.
type captured struct {
	frames []mem.PA
	copies []byte
	leaves []Mapping
}

// unchanged reports whether every recorded frame still holds its copy.
func (c *captured) unchanged(pm *mem.PhysMem) bool {
	if c.frames == nil {
		return false
	}
	for i, pa := range c.frames {
		if !pm.Equal(pa, c.copies[i*mem.PageSize:(i+1)*mem.PageSize]) {
			return false
		}
	}
	return true
}

// leaves returns every leaf of s1 in ascending VA order, with Real and
// HasReal unresolved, in a slice the caller owns. With a memo, a table
// whose recorded frames are byte-identical to their copies is not walked:
// the walk's leaves are a function of those frames' contents alone (see
// mem.Stage1.VisitRecord). Comparing content rather than counting writes
// is what makes the reuse sound against every writer: a raw PhysMem store,
// a tamper, or a freed root frame reused by a new table all change bytes
// the walk read. The fake-to-real resolution is not cached; it depends on
// the process's FakePhys map, which changes outside the tables.
func (mo *Memo) leaves(pm *mem.PhysMem, s1 *mem.Stage1) ([]Mapping, error) {
	if mo == nil {
		return walkLeaves(s1, nil)
	}
	root := s1.Root()
	c, seen := mo.caps.get(root)
	if seen && c.unchanged(pm) {
		return slices.Clone(c.leaves), nil
	}
	mo.walks++
	if !seen {
		maps, err := walkLeaves(s1, nil)
		if err == nil {
			mo.caps.put(root, &captured{})
		}
		return maps, err
	}
	c.frames = c.frames[:0]
	maps, err := walkLeaves(s1, func(pa mem.PA) { c.frames = append(c.frames, pa) })
	if err != nil {
		c.frames, c.leaves = nil, nil
		return nil, err
	}
	if n := len(c.frames) * mem.PageSize; cap(c.copies) < n {
		c.copies = make([]byte, n)
	} else {
		c.copies = c.copies[:n]
	}
	for i, pa := range c.frames {
		if err := pm.Read(pa, c.copies[i*mem.PageSize:(i+1)*mem.PageSize]); err != nil {
			c.frames, c.leaves = nil, nil
			return nil, err
		}
	}
	c.leaves = append(c.leaves[:0], maps...)
	return maps, nil
}

// walkLeaves walks s1, handing every table frame it reads to frame (when
// set).
func walkLeaves(s1 *mem.Stage1, frame func(mem.PA)) ([]Mapping, error) {
	var maps []Mapping
	err := s1.VisitRecord(frame, func(va mem.VA, desc uint64, size uint64) bool {
		maps = append(maps, Mapping{VA: va, Desc: desc, Size: size})
		return true
	})
	if err != nil {
		return nil, err
	}
	return maps, nil
}

// cfgKey names one entry point's reachability in one domain content (see
// cfgFlags).
type cfgKey struct {
	content uint64
	entry   uint64
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
