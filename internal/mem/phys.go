package mem

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// ErrOutOfFrames is returned when the frame allocator is exhausted.
var ErrOutOfFrames = errors.New("physical memory exhausted")

// PhysMem is sparse simulated physical memory with a frame allocator.
// Frames are materialized on first touch, so multi-gigabyte address spaces
// cost only what is actually used.
// frameChunkShift groups frames into chunks of 512 (one 2MB span) so the
// frame table is a two-level array instead of a hash map: instruction
// fetches and page-table walks resolve frames with two indexed loads and no
// hashing, while sparse chunks keep memory proportional to what is touched.
const frameChunkShift = 9

type frameChunk [1 << frameChunkShift]*[PageSize]byte

type PhysMem struct {
	chunks    []*frameChunk
	numFrames uint64
	next      uint64
	freeList  []uint64
	allocated uint64
	// pool carves frames out of batch allocations (see newFrame): first
	// touch costs one host allocation per frameBatch pages instead of one
	// per page, which matters when fleet sweeps materialize tens of
	// thousands of frames.
	pool [][PageSize]byte
}

// frameBatch is how many frames one pool allocation covers (64KB batches).
const frameBatch = 16

// newFrame returns a zeroed frame from the batch pool. Batches come zeroed
// from the allocator, and frames are never returned to the pool (freed
// frames stay in place and are re-zeroed by AllocFrame on reuse), so every
// frame handed out is zero.
func (m *PhysMem) newFrame() *[PageSize]byte {
	if len(m.pool) == 0 {
		m.pool = make([][PageSize]byte, frameBatch)
	}
	f := &m.pool[0]
	m.pool = m.pool[1:]
	return f
}

// NewPhysMem creates physical memory of size bytes (rounded down to whole
// frames).
func NewPhysMem(size uint64) *PhysMem {
	return &PhysMem{numFrames: size >> PageShift}
}

// chunkFor returns the chunk holding frame index idx, materializing it (and
// growing the chunk table, which is sized to the highest chunk ever touched
// rather than the full address space) on first use: a 4GB machine that
// touches one 2MB span carries a one-entry table, not 2048.
func (m *PhysMem) chunkFor(idx uint64) *frameChunk {
	ci := idx >> frameChunkShift
	if ci >= uint64(len(m.chunks)) {
		m.chunks = append(m.chunks, make([]*frameChunk, ci+1-uint64(len(m.chunks)))...)
	}
	ch := m.chunks[ci]
	if ch == nil {
		ch = new(frameChunk)
		m.chunks[ci] = ch
	}
	return ch
}

// Size returns the modelled physical memory size in bytes.
func (m *PhysMem) Size() uint64 { return m.numFrames << PageShift }

// AllocatedBytes returns the bytes currently handed out by the allocator.
func (m *PhysMem) AllocatedBytes() uint64 { return m.allocated << PageShift }

// AllocFrame allocates a zeroed physical frame and returns its base address.
func (m *PhysMem) AllocFrame() (PA, error) {
	var idx uint64
	switch {
	case len(m.freeList) > 0:
		idx = m.freeList[len(m.freeList)-1]
		m.freeList = m.freeList[:len(m.freeList)-1]
		// Reused frames must be zeroed for page-table safety.
		ci, fi := idx>>frameChunkShift, idx&(1<<frameChunkShift-1)
		if ch := m.chunkAt(ci); ch != nil && ch[fi] != nil {
			*ch[fi] = [PageSize]byte{}
		}
	case m.next < m.numFrames:
		idx = m.next
		m.next++
	default:
		return 0, ErrOutOfFrames
	}
	m.allocated++
	return PA(idx << PageShift), nil
}

// AllocContiguous allocates n physically contiguous zeroed frames and
// returns the base of the run, aligned to the run size when n is a power
// of two (2MB block mappings require naturally aligned physical memory).
func (m *PhysMem) AllocContiguous(n uint64) (PA, error) {
	base := m.next
	if n&(n-1) == 0 && n > 0 {
		base = (base + n - 1) &^ (n - 1)
	}
	if base+n > m.numFrames {
		return 0, ErrOutOfFrames
	}
	// Skipped frames from alignment are returned to the free list.
	for f := m.next; f < base; f++ {
		m.freeList = append(m.freeList, f)
	}
	m.next = base + n
	m.allocated += n
	return PA(base << PageShift), nil
}

// FreeFrame returns a frame to the allocator.
func (m *PhysMem) FreeFrame(pa PA) {
	m.freeList = append(m.freeList, uint64(pa)>>PageShift)
	if m.allocated > 0 {
		m.allocated--
	}
}

// chunkAt returns the chunk for index ci without materializing anything.
func (m *PhysMem) chunkAt(ci uint64) *frameChunk {
	if ci >= uint64(len(m.chunks)) {
		return nil
	}
	return m.chunks[ci]
}

func (m *PhysMem) frame(pa PA) (*[PageSize]byte, error) {
	idx := uint64(pa) >> PageShift
	if idx >= m.numFrames {
		return nil, fmt.Errorf("physical address %v beyond memory size %#x", pa, m.Size())
	}
	ch := m.chunkFor(idx)
	f := ch[idx&(1<<frameChunkShift-1)]
	if f == nil {
		f = m.newFrame()
		ch[idx&(1<<frameChunkShift-1)] = f
	}
	return f, nil
}

// VisitFrames calls fn for every materialized frame in ascending physical
// order. Observation only: unlike Read, it never materializes frames, so a
// full-memory digest taken between benchmark steps leaves the machine
// byte-identical (an untouched frame reads as zero and stays untouched).
// fn must not retain the frame pointer past the call.
func (m *PhysMem) VisitFrames(fn func(pa PA, frame *[PageSize]byte)) {
	for ci, ch := range m.chunks {
		if ch == nil {
			continue
		}
		for fi, f := range ch {
			if f == nil {
				continue
			}
			fn(PA((uint64(ci)<<frameChunkShift|uint64(fi))<<PageShift), f)
		}
	}
}

// Read copies len(buf) bytes starting at pa. Accesses may cross frames.
func (m *PhysMem) Read(pa PA, buf []byte) error {
	for len(buf) > 0 {
		f, err := m.frame(pa)
		if err != nil {
			return err
		}
		off := uint64(pa) & PageMask
		n := copy(buf, f[off:])
		buf = buf[n:]
		pa += PA(n)
	}
	return nil
}

// Write copies buf into physical memory starting at pa.
func (m *PhysMem) Write(pa PA, buf []byte) error {
	for len(buf) > 0 {
		f, err := m.frame(pa)
		if err != nil {
			return err
		}
		off := uint64(pa) & PageMask
		n := copy(f[off:], buf)
		buf = buf[n:]
		pa += PA(n)
	}
	return nil
}

// ReadUint reads a size-byte (1, 2, 4, 8) little-endian value that does not
// cross a frame boundary — the emulated load/store fast path. Callers must
// check the bound; crossing accesses go through Read.
func (m *PhysMem) ReadUint(pa PA, size int) (uint64, error) {
	f, err := m.frame(pa)
	if err != nil {
		return 0, err
	}
	off := uint64(pa) & PageMask
	switch size {
	case 8:
		return binary.LittleEndian.Uint64(f[off : off+8]), nil
	case 4:
		return uint64(binary.LittleEndian.Uint32(f[off : off+4])), nil
	case 2:
		return uint64(binary.LittleEndian.Uint16(f[off : off+2])), nil
	default:
		return uint64(f[off]), nil
	}
}

// WriteUint writes a size-byte little-endian value that does not cross a
// frame boundary. Callers must check the bound; crossing accesses go
// through Write.
func (m *PhysMem) WriteUint(pa PA, size int, v uint64) error {
	f, err := m.frame(pa)
	if err != nil {
		return err
	}
	off := uint64(pa) & PageMask
	switch size {
	case 8:
		binary.LittleEndian.PutUint64(f[off:off+8], v)
	case 4:
		binary.LittleEndian.PutUint32(f[off:off+4], uint32(v))
	case 2:
		binary.LittleEndian.PutUint16(f[off:off+2], uint16(v))
	default:
		f[off] = byte(v)
	}
	return nil
}

// ReadU64 reads a little-endian 64-bit word (page-table descriptors).
func (m *PhysMem) ReadU64(pa PA) (uint64, error) {
	if off := uint64(pa) & PageMask; off+8 <= PageSize {
		f, err := m.frame(pa)
		if err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint64(f[off : off+8]), nil
	}
	var b [8]byte
	if err := m.Read(pa, b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b[:]), nil
}

// WriteU64 writes a little-endian 64-bit word.
func (m *PhysMem) WriteU64(pa PA, v uint64) error {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	return m.Write(pa, b[:])
}

// ReadU32 reads a little-endian 32-bit word (instruction fetch).
func (m *PhysMem) ReadU32(pa PA) (uint32, error) {
	if off := uint64(pa) & PageMask; off+4 <= PageSize {
		f, err := m.frame(pa)
		if err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint32(f[off : off+4]), nil
	}
	var b [4]byte
	if err := m.Read(pa, b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b[:]), nil
}
