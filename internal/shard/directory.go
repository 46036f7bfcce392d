package shard

import (
	"sync"
	"sync/atomic"
)

// Directory is the generation-checked connection-ID table that makes
// cross-shard migration safe. It extends the §3.5 DirectIndex idiom
// — a dense array indexed by a small integer the server chose at accept
// time — with one packed atomic word per slot:
//
//	bits 32..63  generation (bumped on every assign, move, and release)
//	bits  0..31  owner shard + 1 (0 means the slot is free)
//
// The hot path (a shard deciding whether a handed-off or stale-steered
// frame still belongs to it) is a single atomic load and compare. The
// control plane (assign/release, the next-fresh counter, and the list
// of released IDs) takes a mutex — those run at connection-arrival
// rate, not packet rate. Because the generation bumps on every
// transition, a handoff message or a cached (id, gen) pair from before
// a migration can never validate against the slot again: stale
// resolution fails closed.
type Directory struct {
	// slots needs no //demux:atomic marker: the element type is
	// atomic.Uint64, so every slot access is atomic by construction, and
	// the slice header itself is immutable after NewDirectory (fixed
	// capacity — growth would race the hot-path loads).
	slots []atomic.Uint64

	// next is the lowest never-assigned ID; free holds released IDs,
	// reused most recent first before any fresh ID is handed out.
	mu   sync.Mutex
	next int
	free []int
}

const (
	dirGenShift  = 32
	dirOwnerMask = (uint64(1) << dirGenShift) - 1
)

func dirPack(gen uint32, owner int) uint64 {
	return uint64(gen)<<dirGenShift | uint64(owner+1)&dirOwnerMask
}

// NewDirectory returns a directory with a fixed capacity of connection
// IDs. Capacity is fixed so the hot-path slot loads never race a table
// growth; size it to the engine's connection budget.
func NewDirectory(capacity int) *Directory {
	return &Directory{slots: make([]atomic.Uint64, capacity)}
}

// Cap returns the fixed connection-ID capacity.
func (d *Directory) Cap() int { return len(d.slots) }

// Len returns the number of assigned IDs.
func (d *Directory) Len() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.next - len(d.free)
}

// Assign allocates a fresh connection ID owned by the given shard and
// returns it with the slot's new generation. ok is false when the
// directory is full. Released IDs are reused first, most recent first;
// then fresh IDs follow in ascending order, so dense workloads stay
// dense. The generation continues from the slot's previous life, so an
// ID released and reassigned never revalidates old frames.
func (d *Directory) Assign(owner int) (id int, gen uint32, ok bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	switch {
	case len(d.free) > 0:
		id = d.free[len(d.free)-1]
		d.free = d.free[:len(d.free)-1]
	case d.next < len(d.slots):
		id = d.next
		d.next++
	default:
		return 0, 0, false
	}
	prev := d.slots[id].Load()
	gen = uint32(prev>>dirGenShift) + 1
	d.slots[id].Store(dirPack(gen, owner))
	return id, gen, true
}

// Owner returns the shard currently owning id and the slot's generation.
// ok is false for a free or out-of-range slot.
//
//demux:hotpath
func (d *Directory) Owner(id int) (owner int, gen uint32, ok bool) {
	if id < 0 || id >= len(d.slots) {
		return 0, 0, false
	}
	v := d.slots[id].Load()
	if v&dirOwnerMask == 0 {
		return 0, 0, false
	}
	return int(v&dirOwnerMask) - 1, uint32(v >> dirGenShift), true
}

// OwnedBy reports whether slot id is currently owned by shard owner at
// exactly generation gen — the one-load check a shard runs before
// resolving a handed-off frame. Any intervening move or release bumped
// the generation, so a stale claim fails.
//
//demux:hotpath
func (d *Directory) OwnedBy(id int, gen uint32, owner int) bool {
	if id < 0 || id >= len(d.slots) {
		return false
	}
	return d.slots[id].Load() == dirPack(gen, owner)
}

// Move transfers ownership of id from shard `from` to shard `to`,
// bumping the generation, and returns the new generation. It fails
// (ok=false) when the slot is not currently owned by `from` at
// generation gen — meaning the caller's view was already stale and it
// must not migrate the connection.
func (d *Directory) Move(id int, gen uint32, from, to int) (newGen uint32, ok bool) {
	if id < 0 || id >= len(d.slots) {
		return 0, false
	}
	old := dirPack(gen, from)
	newGen = gen + 1
	if !d.slots[id].CompareAndSwap(old, dirPack(newGen, to)) {
		return 0, false
	}
	return newGen, true
}

// Release frees id, which must be owned by shard owner at generation
// gen. The generation bumps so late frames carrying the dead (id, gen)
// cannot match a future tenant. ok is false on a stale claim, in which
// case the slot is untouched.
func (d *Directory) Release(id int, gen uint32, owner int) bool {
	if id < 0 || id >= len(d.slots) {
		return false
	}
	old := dirPack(gen, owner)
	// Free marker keeps the bumped generation with owner bits zero.
	if !d.slots[id].CompareAndSwap(old, uint64(gen+1)<<dirGenShift) {
		return false
	}
	d.mu.Lock()
	d.free = append(d.free, id)
	d.mu.Unlock()
	return true
}
