package flat

import (
	"testing"

	"tcpdemux/internal/core"
	"tcpdemux/internal/rng"
)

// buildPair populates two identical instances of one variant (one will
// run per-packet lookups, the other batched) plus the packet stream:
// exact hits, listener hits, repeats, and total misses.
func buildPair(t *testing.T, mk func() Table) (per, bat Table, stream []core.Key) {
	t.Helper()
	per, bat = mk(), mk()
	src := rng.New(7)
	const conns = 900
	// The same PCB objects go into both instances so Results compare
	// pointer-for-pointer.
	for i := 0; i < conns; i++ {
		p := core.NewPCB(connKey(i))
		for _, d := range []Table{per, bat} {
			if err := d.Insert(p); err != nil {
				t.Fatal(err)
			}
		}
	}
	l := core.NewListenPCB(core.ListenKey(connKey(0).LocalAddr, 80))
	for _, d := range []Table{per, bat} {
		if err := d.Insert(l); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3000; i++ {
		switch src.Intn(10) {
		case 0: // miss on another port
			k := connKey(src.Intn(conns))
			k.LocalPort = 9999
			stream = append(stream, k)
		case 1: // listener hit: right port, unknown remote
			stream = append(stream, connKey(conns+src.Intn(conns)))
		default: // exact hit, Zipf-ish repeats
			stream = append(stream, connKey(src.Intn(conns)))
		}
	}
	return per, bat, stream
}

// TestBatchMatchesPerPacket: for every variant, every
// batch size and every prefetch depth (including 0, the pipeline off),
// LookupBatch's Result sequence and folded statistics must be identical
// to per-packet Lookup.
func TestBatchMatchesPerPacket(t *testing.T) {
	makers := map[string]func() Table{
		"flat-hopscotch": func() Table { return NewHopscotch(0, nil) },
		"flat-cuckoo":    func() Table { return NewCuckoo(0, nil) },
	}
	for name, mk := range makers {
		for _, depth := range []int{0, 1, 2, 4, 8, 16} {
			t.Run(name, func(t *testing.T) {
				per, bat, stream := buildPair(t, mk)
				bat.SetPrefetchDepth(depth)
				if bat.PrefetchDepth() != depth {
					t.Fatalf("PrefetchDepth=%d want %d", bat.PrefetchDepth(), depth)
				}
				var out []core.Result
				for _, size := range []int{1, 3, 16, 64, 257} {
					for lo := 0; lo < len(stream); lo += size {
						hi := lo + size
						if hi > len(stream) {
							hi = len(stream)
						}
						out = bat.LookupBatch(stream[lo:hi], core.DirData, out)
						for i, k := range stream[lo:hi] {
							want := per.Lookup(k, core.DirData)
							if out[i] != want {
								t.Fatalf("depth %d size %d key %d: batch %+v, per-packet %+v",
									depth, size, lo+i, out[i], want)
							}
						}
					}
				}
				if ps, bs := *per.Stats(), *bat.Stats(); ps != bs {
					t.Fatalf("depth %d: stats diverge: per-packet %+v, batch %+v", depth, ps, bs)
				}
			})
		}
	}
}

// TestBatchEdgeCases: empty batches, nil out, and out reuse when
// capacity suffices.
func TestBatchEdgeCases(t *testing.T) {
	d := NewHopscotch(0, nil)
	if err := d.Insert(core.NewPCB(connKey(1))); err != nil {
		t.Fatal(err)
	}
	out := d.LookupBatch(nil, core.DirData, nil)
	if len(out) != 0 {
		t.Fatalf("empty batch returned %d results", len(out))
	}
	big := make([]core.Result, 64)
	out = d.LookupBatch([]core.Key{connKey(1)}, core.DirData, big)
	if len(out) != 1 || &out[0] != &big[:1][0] {
		t.Fatal("batch did not reuse caller's buffer")
	}
	if out[0].PCB == nil {
		t.Fatal("batch missed an inserted key")
	}
}
