package flat

import (
	"tcpdemux/internal/core"
	"tcpdemux/internal/hashfn"
)

const (
	// bucketSlots is the cuckoo bucket width. Four 24-byte entries are 96
	// bytes — a bucket straddles at most two cache lines, and the
	// four-way choice keeps insertion viable to ~95% load.
	bucketSlots = 4

	// maxKicks bounds the eviction chain before the insert gives up and
	// doubles the table. Generous: at sane loads chains are short, and a
	// long chain is itself the signal the table is too full.
	maxKicks = 128
)

// Cuckoo is an open-addressing demultiplexer with bucketized cuckoo
// hashing [Pagh & Rodler 2004; the 4-slot bucket form popularized by
// cuckoo filters]: every key has exactly two candidate buckets derived
// from its hash, so a lookup probes at most two 4-entry groups — a hard
// worst case of 8 occupied cells examined before the listener scan, no
// matter the load or the operation history. Insertion relocates ("kicks")
// entries between their two buckets to make room, doubling the table if
// an eviction chain runs too long.
//
// The alternate bucket is home XOR a nonzero odd mix of the hash, an
// involution computable from any entry in place — a kicked entry's other
// bucket needs no stored metadata beyond the hash fingerprint the entry
// already carries.
//
// Kick victims rotate through a deterministic counter (no randomness:
// demuxvet's seededrand rule and the repo's determinism discipline apply
// to table maintenance as much as to simulation). Not safe for
// concurrent use: each shard owns its own table.
type Cuckoo struct {
	tableCommon
	entries []entry // len = nbuckets * bucketSlots, bucket-major
	mask    uint32  // nbuckets - 1
	kick    uint32  // round-robin victim-slot counter
}

// NewCuckoo builds a bucketized-cuckoo demultiplexer sized for about
// capacity connections (a small default if <= 0) and the given hash
// function (multiplicative if nil). The table grows itself; capacity is
// only the initial sizing hint.
func NewCuckoo(capacity int, fn hashfn.Func) *Cuckoo {
	t := &Cuckoo{}
	t.init(fn)
	t.sizeTo(roundPow2((capacity+bucketSlots-1)/bucketSlots, 8))
	return t
}

// sizeTo (re)allocates the table at the given power-of-two bucket count.
func (t *Cuckoo) sizeTo(nbuckets int) {
	t.mask = uint32(nbuckets - 1)
	t.entries = make([]entry, nbuckets*bucketSlots)
}

// Name implements core.Demuxer.
func (t *Cuckoo) Name() string { return "flat-cuckoo" }

// altBucket maps a bucket index to the key's other candidate bucket.
// The XOR'd term depends only on the hash and is forced odd, so the map
// is an involution (altBucket(altBucket(b)) == b) and never a fixed
// point (an odd value masked by nbuckets-1 keeps its set low bit, so the
// XOR always flips something).
//
//demux:hotpath
func (t *Cuckoo) altBucket(b, h uint32) uint32 {
	return b ^ (((h>>16)*0x5bd1e995)|1)&t.mask
}

// bucket returns bucket b's bucketSlots contiguous entries.
//
//demux:hotpath
func (t *Cuckoo) bucket(b uint32) []entry {
	i := int(b) * bucketSlots
	return t.entries[i : i+bucketSlots : i+bucketSlots]
}

// probe scans one bucket for (k, h), counting occupied cells into
// r.Examined. It reports whether the key was found (r.PCB set).
//
//demux:hotpath
func (t *Cuckoo) probe(bk []entry, k core.Key, h uint32, r *core.Result) bool {
	for i := range bk {
		if bk[i].slot == 0 {
			continue
		}
		r.Examined++
		if bk[i].hash == h && bk[i].key == k {
			r.PCB = t.slab.at(bk[i].slot-1, bk[i].gen)
			return true
		}
	}
	return false
}

// lookupHashed resolves one packet key whose hash is already computed —
// the shared probe behind the per-packet and batched paths. First
// candidate bucket, then the alternate, then the listener scan.
//
//demux:hotpath
func (t *Cuckoo) lookupHashed(k core.Key, h uint32) core.Result {
	var r core.Result
	b1 := h & t.mask
	if t.probe(t.bucket(b1), k, h, &r) {
		return r
	}
	if t.probe(t.bucket(t.altBucket(b1, h)), k, h, &r) {
		return r
	}
	t.listenScan(k, &r)
	return r
}

// Lookup implements core.Demuxer.
//
//demux:hotpath
func (t *Cuckoo) Lookup(k core.Key, _ core.Direction) core.Result {
	r := t.lookupHashed(k, t.hashOf(k))
	t.record(r)
	return r
}

// Insert implements core.Demuxer. Wildcard keys register listeners;
// exact keys go into either candidate bucket, kicking residents along
// their alternate buckets — and doubling the table if a chain runs past
// maxKicks — until a slot opens.
func (t *Cuckoo) Insert(p *core.PCB) error {
	if p.Key.IsWildcard() {
		return t.listenInsert(p)
	}
	h := t.hashOf(p.Key)
	b1 := h & t.mask
	b2 := t.altBucket(b1, h)
	if t.contains(t.bucket(b1), p.Key, h) || t.contains(t.bucket(b2), p.Key, h) {
		return core.ErrDuplicateKey
	}
	idx, gen := t.slab.alloc(p)
	e := entry{key: p.Key, hash: h, slot: idx + 1, gen: gen}
	// Grow ahead of the load wall: past ~15/16 occupancy eviction chains
	// lengthen sharply.
	if 16*(t.n+1) > 15*len(t.entries) {
		t.grow()
	}
	for {
		// A failed place has still swapped entries along its kick chain:
		// the table holds everything except the returned homeless entry,
		// so after growing it is that entry — not the original — that
		// still needs a slot.
		homeless, ok := t.place(e)
		if ok {
			break
		}
		e = homeless
		t.grow()
	}
	t.n++
	return nil
}

// contains reports whether bucket bk holds exactly key k.
func (t *Cuckoo) contains(bk []entry, k core.Key, h uint32) bool {
	for i := range bk {
		if bk[i].slot != 0 && bk[i].hash == h && bk[i].key == k {
			return true
		}
	}
	return false
}

// place tries to insert e, kicking residents between their candidate
// buckets for at most maxKicks displacements. It reports failure (caller
// grows) rather than growing itself so the rebuild path can reuse it.
// On failure the kick chain's swaps have already happened; the returned
// entry is the one left homeless (the last evicted victim), which the
// caller must re-place after growing — retrying the original would
// duplicate it and lose the victim.
func (t *Cuckoo) place(e entry) (entry, bool) {
	b := e.hash & t.mask
	for kicks := 0; kicks <= maxKicks; kicks++ {
		bk := t.bucket(b)
		for i := range bk {
			if bk[i].slot == 0 {
				bk[i] = e
				return entry{}, true
			}
		}
		if kicks == maxKicks {
			break
		}
		// Bucket full: evict a rotating victim and continue from its
		// alternate bucket carrying the victim.
		v := &bk[t.kick%bucketSlots]
		t.kick++
		e, *v = *v, e
		b = t.altBucket(b, e.hash)
	}
	return e, false
}

// grow doubles the bucket count (again if a pathological rebuild still
// fails) and re-places every live entry against the new mask. Entries
// carry their full hash, so no key is rehashed.
func (t *Cuckoo) grow() {
	old := t.entries
	nbuckets := int(t.mask) + 1
	for {
		nbuckets *= 2
		t.sizeTo(nbuckets)
		ok := true
		for i := range old {
			if old[i].slot == 0 {
				continue
			}
			// The homeless entry of a failed rebuild needs no rescue: the
			// half-built table is discarded wholesale and every entry is
			// re-placed from the untouched old snapshot at the next size.
			if _, placed := t.place(old[i]); !placed {
				ok = false
				break
			}
		}
		if ok {
			return
		}
	}
}

// Remove implements core.Demuxer: empty the cell (no tombstone — lookups
// probe both buckets regardless) and recycle the slab cell with its
// generation bumped.
func (t *Cuckoo) Remove(k core.Key) bool {
	if k.IsWildcard() {
		return t.listenRemove(k)
	}
	h := t.hashOf(k)
	b1 := h & t.mask
	if t.removeFrom(t.bucket(b1), k, h) || t.removeFrom(t.bucket(t.altBucket(b1, h)), k, h) {
		t.n--
		return true
	}
	return false
}

// removeFrom deletes exactly key k from one bucket if present.
func (t *Cuckoo) removeFrom(bk []entry, k core.Key, h uint32) bool {
	for i := range bk {
		if bk[i].slot != 0 && bk[i].hash == h && bk[i].key == k {
			t.slab.release(bk[i].slot - 1)
			bk[i] = entry{}
			return true
		}
	}
	return false
}

// Walk implements core.Demuxer: table cells in bucket order, then
// listeners — deterministic for a given operation history.
func (t *Cuckoo) Walk(fn func(*core.PCB) bool) {
	for i := range t.entries {
		if t.entries[i].slot == 0 {
			continue
		}
		if p := t.slab.at(t.entries[i].slot-1, t.entries[i].gen); p != nil {
			if !fn(p) {
				return
			}
		}
	}
	t.listenWalk(fn)
}

// NumBuckets returns the current bucket count (power of two), exposed
// for the cache-model estimator and tests.
func (t *Cuckoo) NumBuckets() int { return int(t.mask) + 1 }

func init() {
	core.Register("flat-cuckoo", func(c core.Config) core.Demuxer {
		return NewCuckoo(0, c.Hash)
	})
}

var _ Table = (*Cuckoo)(nil)
