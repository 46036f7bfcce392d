package shard

import (
	"testing"

	"tcpdemux/internal/hashfn"
	"tcpdemux/internal/wire"
)

func TestDirectoryAssignMoveRelease(t *testing.T) {
	d := NewDirectory(4)
	if d.Cap() != 4 || d.Len() != 0 {
		t.Fatalf("fresh directory Cap=%d Len=%d", d.Cap(), d.Len())
	}

	id, gen, ok := d.Assign(2)
	if !ok || gen != 1 {
		t.Fatalf("Assign = (%d, %d, %v), want gen 1", id, gen, ok)
	}
	if owner, g, ok := d.Owner(id); !ok || owner != 2 || g != gen {
		t.Fatalf("Owner = (%d, %d, %v), want (2, %d, true)", owner, g, ok, gen)
	}
	if !d.OwnedBy(id, gen, 2) {
		t.Fatal("OwnedBy rejected the live claim")
	}
	if d.OwnedBy(id, gen, 1) || d.OwnedBy(id, gen+1, 2) {
		t.Fatal("OwnedBy accepted a wrong owner or generation")
	}

	// Migration bumps the generation and invalidates the old claim.
	gen2, ok := d.Move(id, gen, 2, 0)
	if !ok || gen2 != gen+1 {
		t.Fatalf("Move = (%d, %v), want gen %d", gen2, ok, gen+1)
	}
	if d.OwnedBy(id, gen, 2) {
		t.Fatal("pre-move claim still validates after migration")
	}
	if !d.OwnedBy(id, gen2, 0) {
		t.Fatal("post-move claim does not validate")
	}
	// A second mover holding the stale generation must fail.
	if _, ok := d.Move(id, gen, 2, 1); ok {
		t.Fatal("Move succeeded with a stale generation")
	}

	// Release with a stale claim fails; with the live one it frees.
	if d.Release(id, gen, 2) {
		t.Fatal("Release succeeded with a stale claim")
	}
	if !d.Release(id, gen2, 0) {
		t.Fatal("Release failed with the live claim")
	}
	if _, _, ok := d.Owner(id); ok {
		t.Fatal("released slot still has an owner")
	}
	if d.Len() != 0 {
		t.Fatalf("Len after release = %d", d.Len())
	}
}

// TestDirectoryReuseBumpsGeneration checks that an ID released and
// reassigned never revalidates claims from its previous life — the
// property that makes late frames from a dead connection fail closed.
func TestDirectoryReuseBumpsGeneration(t *testing.T) {
	d := NewDirectory(1)
	id, gen1, ok := d.Assign(0)
	if !ok {
		t.Fatal("Assign failed")
	}
	if !d.Release(id, gen1, 0) {
		t.Fatal("Release failed")
	}
	id2, gen2, ok := d.Assign(1)
	if !ok || id2 != id {
		t.Fatalf("reassign = (%d, %v), want id %d", id2, ok, id)
	}
	if gen2 <= gen1 {
		t.Fatalf("reassigned generation %d did not advance past %d", gen2, gen1)
	}
	if d.OwnedBy(id, gen1, 0) {
		t.Fatal("claim from the previous tenancy validates against the new one")
	}
}

// TestDirectoryIDSequence pins the order Assign hands out IDs under a
// mixed assign/release/exhaust schedule: released IDs come back first,
// most recently released first, and only then do never-used IDs follow
// in ascending order.
func TestDirectoryIDSequence(t *testing.T) {
	d := NewDirectory(6)
	gens := map[int]uint32{}
	assign := func(want int) {
		t.Helper()
		id, gen, ok := d.Assign(0)
		if !ok || id != want {
			t.Fatalf("Assign = (%d, %v), want id %d", id, ok, want)
		}
		gens[id] = gen
	}
	release := func(id int) {
		t.Helper()
		if !d.Release(id, gens[id], 0) {
			t.Fatalf("Release(%d) failed", id)
		}
	}
	assign(0)
	assign(1)
	assign(2)
	release(1)
	release(0)
	assign(0) // LIFO: the last release comes back first
	assign(1)
	assign(3) // then fresh IDs, ascending
	release(2)
	assign(2)
	assign(4)
	assign(5)
	if _, _, ok := d.Assign(0); ok {
		t.Fatal("Assign succeeded on a full directory")
	}
	if d.Len() != 6 {
		t.Fatalf("Len = %d, want 6", d.Len())
	}
	release(4)
	release(0)
	release(5)
	if d.Len() != 3 {
		t.Fatalf("Len = %d, want 3", d.Len())
	}
	assign(5)
	assign(0)
	assign(4)
	if _, _, ok := d.Assign(0); ok {
		t.Fatal("Assign succeeded on a refilled directory")
	}
}

func TestDirectoryExhaustionAndBounds(t *testing.T) {
	d := NewDirectory(2)
	ids := map[int]bool{}
	for i := 0; i < 2; i++ {
		id, _, ok := d.Assign(0)
		if !ok || ids[id] {
			t.Fatalf("Assign %d = (%d, %v), ids %v", i, id, ok, ids)
		}
		ids[id] = true
	}
	if _, _, ok := d.Assign(0); ok {
		t.Fatal("Assign succeeded on a full directory")
	}
	if _, _, ok := d.Owner(-1); ok {
		t.Fatal("Owner(-1) succeeded")
	}
	if _, _, ok := d.Owner(2); ok {
		t.Fatal("Owner(out of range) succeeded")
	}
	if d.OwnedBy(-1, 0, 0) || d.OwnedBy(2, 0, 0) {
		t.Fatal("OwnedBy accepted out-of-range ids")
	}
	if _, ok := d.Move(9, 1, 0, 1); ok {
		t.Fatal("Move accepted an out-of-range id")
	}
	if d.Release(9, 1, 0) {
		t.Fatal("Release accepted an out-of-range id")
	}
}

func TestSteeringStableAndBounded(t *testing.T) {
	st := NewSteering(4, hashfn.DefaultKeyed)
	if st.Shards() != 4 {
		t.Fatalf("Shards = %d", st.Shards())
	}
	counts := make([]int, 4)
	for i := 0; i < 4096; i++ {
		tup := wire.Tuple{
			SrcAddr: wire.Addr{10, 0, byte(i >> 8), byte(i)},
			DstAddr: wire.Addr{10, 0, 0, 1},
			SrcPort: uint16(1024 + i%40000),
			DstPort: 1521,
		}
		s := st.Shard(tup)
		if s < 0 || s >= 4 {
			t.Fatalf("Shard out of range: %d", s)
		}
		if again := st.Shard(tup); again != s {
			t.Fatalf("steering not stable: %d then %d", s, again)
		}
		counts[s]++
	}
	// The keyed hash should spread a structured population roughly evenly;
	// allow a generous band around the 1024 mean.
	for i, c := range counts {
		if c < 512 || c > 1536 {
			t.Fatalf("shard %d got %d of 4096 tuples — steering badly skewed %v", i, c, counts)
		}
	}
	// A different key steers differently (the property rekey relies on).
	st2 := NewSteering(4, hashfn.NewKeyed(1, 2))
	moved := 0
	for i := 0; i < 4096; i++ {
		tup := wire.Tuple{
			SrcAddr: wire.Addr{10, 0, byte(i >> 8), byte(i)},
			DstAddr: wire.Addr{10, 0, 0, 1},
			SrcPort: uint16(1024 + i%40000),
			DstPort: 1521,
		}
		if st.Shard(tup) != st2.Shard(tup) {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("rekeyed steering moved no tuples")
	}

	if NewSteering(0, hashfn.DefaultKeyed).Shards() != 1 {
		t.Fatal("NewSteering(0) did not clamp to 1")
	}
}
