// Package flat implements cache-conscious open-addressing demultiplexers:
// the first discipline family in this repository designed around the
// memory hierarchy rather than around the paper's list structures.
//
// The paper's disciplines (§3.1–3.4) and their descendants under
// internal/core all resolve a lookup by walking a chain, so a lookup that
// examines E PCBs pays for E examinations. internal/core keeps each key
// inline in a contiguous slot array, which makes an examination a
// sequential key compare rather than a cache miss, but E itself stays at
// the paper's figure (BENCH_cache.json measures the Sequent baseline at
// ~160 mean examined PCBs per lookup at 6,000 users over 19 chains).
// This package bounds E instead, following the cache-aware
// forwarding-table layout of Yegorov and the pipelined lookup
// architecture of Jiang et al. (PAPERS.md):
//
//   - Entries are 24-byte fixed-size cells — the 12-byte connection key,
//     its full 32-bit hash as a scan fingerprint, and a generation-checked
//     index into a PCB slab — packed contiguously, so one probe group is
//     one or two sequential cache lines instead of one line per hop, and
//     a scan never dereferences a PCB until the fingerprint and key both
//     match.
//   - Hopscotch keeps every key within a fixed H-slot neighborhood of its
//     home slot, so a lookup scans one bounded contiguous window.
//   - Cuckoo (bucketized, 4 slots per bucket) gives every key exactly two
//     candidate buckets, so a lookup probes at most two groups.
//   - LookupBatch software-pipelines a train: while packet i's probe
//     group is being resolved, the group packet i+k will need is
//     prefetched (portable shim, see prefetch.go), hiding the memory
//     latency the per-packet path pays serially.
//
// Both tables implement core.Demuxer and core.Batcher and are
// single-writer, like the core algorithms: in the sharded engine each
// shard owns its table outright. Neither table keeps the chained
// disciplines' one-entry caches: a probe group costs about as much as a
// cache probe would, so Result.CacheHit is always false and Stats.Hits
// stays zero.
//
// Deletions need no tombstones in either scheme — a hopscotch lookup
// scans its fixed neighborhood and a cuckoo lookup its two buckets
// whether or not holes intervene — so a delete just empties the slot and
// returns the PCB's slab cell (generation bumped) to the free list.
package flat

import (
	"unsafe"

	"tcpdemux/internal/core"
	"tcpdemux/internal/hashfn"
)

// entry is one 24-byte cell of an open-addressing table: the connection
// key inlined next to its full 32-bit hash (the scan fingerprint — a
// probe compares one word and touches the 12-byte key only on a
// fingerprint match) and a generation-checked reference into the PCB
// slab. slot is the slab index plus one so the zero entry means an empty
// cell; gen must match the slab cell's current generation, which guards
// a stale reference after the cell is recycled the same way DirectIndex
// (§3.5) guards reused connection IDs.
type entry struct {
	key  core.Key
	hash uint32
	slot uint32 // slab index + 1; 0 = empty cell
	gen  uint32
}

// The 24-byte entry size is load-bearing for the probe-group layout;
// refuse to compile if padding or a key change grows it.
const (
	entryBytes = 24
	_          = uint(entryBytes - unsafe.Sizeof(entry{}))
	_          = uint(unsafe.Sizeof(entry{}) - entryBytes)
)

// slab owns the PCB pointers the table entries index into. Cells are
// recycled through a free list; release bumps the cell's generation so a
// dangling entry written against the old generation can never resolve to
// the new occupant.
type slab struct {
	pcbs []*core.PCB
	gens []uint32
	// free is mutated only by the alloc/release pair (the slabmut role);
	// the lookup path reads pcbs and gens but never the free list.
	free []uint32 //demux:singlewriter(owner=slabmut)
}

// alloc stores p in a free (or fresh) cell and returns its index and
// current generation.
//
//demux:owner(slabmut)
func (s *slab) alloc(p *core.PCB) (idx, gen uint32) {
	if n := len(s.free); n > 0 {
		idx = s.free[n-1]
		s.free = s.free[:n-1]
		s.pcbs[idx] = p
		return idx, s.gens[idx]
	}
	s.pcbs = append(s.pcbs, p)
	s.gens = append(s.gens, 0)
	return uint32(len(s.pcbs) - 1), 0
}

// release empties cell idx, advances its generation, and queues it for
// reuse.
//
//demux:owner(slabmut)
func (s *slab) release(idx uint32) {
	s.pcbs[idx] = nil
	s.gens[idx]++
	s.free = append(s.free, idx)
}

// at resolves a generation-checked reference; nil if the cell has been
// recycled since the reference was written.
//
//demux:hotpath
func (s *slab) at(idx, gen uint32) *core.PCB {
	if s.gens[idx] != gen {
		return nil
	}
	return s.pcbs[idx]
}

// lentry is one wildcard listener. Listeners are matched by wildcard
// scoring, not equality, so they live outside the packed tables in a
// small front-inserted slice, exactly as in the chained disciplines.
type lentry struct {
	key core.Key
	pcb *core.PCB
}

// DefaultPrefetchDepth is the batch pipeline depth k: while packet i is
// resolved, packet i+k's probe group is prefetched. Four groups keeps
// the pipeline ahead of a load-to-use latency of a few hundred cycles at
// ~50–100 cycles per resolution without thrashing L1 on short trains.
const DefaultPrefetchDepth = 4

// tableCommon is the state the two open-addressing variants share: hash
// selection, the PCB slab, the listener table, statistics, and the batch
// pipeline scratch.
type tableCommon struct {
	hash hashfn.Func
	// mult short-circuits hashOf to the concrete (inlinable)
	// multiplicative hash when hash is the default: an interface call per
	// packet is a real fraction of a one-group probe.
	mult bool

	slab   slab
	listen []lentry
	n      int // occupied table cells (listeners excluded)

	depth int // prefetch pipeline depth k; 0 disables
	stats core.Stats

	// scratch holds the precomputed hash of every key in the current
	// train; sink is the accumulator the prefetch shim stores into so the
	// early loads cannot be optimized away.
	scratch []uint32
	sink    uint64
}

func (c *tableCommon) init(fn hashfn.Func) {
	if fn == nil {
		fn = hashfn.Multiplicative{}
	}
	c.hash = fn
	_, c.mult = fn.(hashfn.Multiplicative)
	c.depth = DefaultPrefetchDepth
}

// hashOf computes an exact key's full hash, used for slot selection and
// as the entry fingerprint.
//
//demux:hotpath
func (c *tableCommon) hashOf(k core.Key) uint32 {
	if c.mult {
		return hashfn.Multiplicative{}.Hash(k.Tuple())
	}
	return c.hash.Hash(k.Tuple())
}

// SetPrefetchDepth sets the batch pipeline depth k (clamped at 0): while
// packet i resolves, packet i+k's probe group is prefetched. 0 disables
// the pipeline; results are identical either way.
func (c *tableCommon) SetPrefetchDepth(k int) {
	if k < 0 {
		k = 0
	}
	c.depth = k
}

// PrefetchDepth returns the current batch pipeline depth.
func (c *tableCommon) PrefetchDepth() int { return c.depth }

// listenInsert registers a wildcard listener, newest first.
func (c *tableCommon) listenInsert(p *core.PCB) error {
	for i := range c.listen {
		if c.listen[i].key == p.Key {
			return core.ErrDuplicateKey
		}
	}
	c.listen = append(c.listen, lentry{})
	copy(c.listen[1:], c.listen)
	c.listen[0] = lentry{key: p.Key, pcb: p}
	return nil
}

// listenRemove deletes the listener with exactly key k.
func (c *tableCommon) listenRemove(k core.Key) bool {
	for i := range c.listen {
		if c.listen[i].key == k {
			c.listen = append(c.listen[:i], c.listen[i+1:]...)
			return true
		}
	}
	return false
}

// listenScan finds the best wildcard listener for packet key k after an
// exact-match miss, most specific first-wins, with the same scoring and
// examination accounting as the chained disciplines.
//
//demux:hotpath
func (c *tableCommon) listenScan(k core.Key, r *core.Result) {
	best := -1
	for i := range c.listen {
		r.Examined++
		if score := core.Match(c.listen[i].key, k); score > best {
			best = score
			r.PCB = c.listen[i].pcb
		}
	}
	r.Wildcard = r.PCB != nil
}

// listenWalk iterates the listeners, newest first, for Walk.
func (c *tableCommon) listenWalk(fn func(*core.PCB) bool) bool {
	for i := range c.listen {
		if !fn(c.listen[i].pcb) {
			return false
		}
	}
	return true
}

// record folds one per-packet lookup into the table's statistics.
//
//demux:hotpath
func (c *tableCommon) record(r core.Result) { c.stats.Record(r) }

// Stats implements core.Demuxer; the pointer stays live.
func (c *tableCommon) Stats() *core.Stats { return &c.stats }

// NotifySend implements core.Demuxer; the flat tables ignore
// transmissions.
func (c *tableCommon) NotifySend(*core.PCB) {}

// Len implements core.Demuxer.
func (c *tableCommon) Len() int { return c.n + len(c.listen) }

// roundPow2 rounds n up to a power of two, at least min.
func roundPow2(n, min int) int {
	size := min
	for size < n {
		size <<= 1
	}
	return size
}

// Table is the interface both open-addressing variants satisfy: a
// core.Demuxer with a native pipelined batch path, plus the
// prefetch-depth control the benchmark harnesses sweep.
type Table interface {
	core.Demuxer
	core.Batcher

	// SetPrefetchDepth and PrefetchDepth control the batch pipeline
	// depth k.
	SetPrefetchDepth(k int)
	PrefetchDepth() int
}
