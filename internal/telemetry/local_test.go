package telemetry

import (
	"sync"
	"testing"

	"tcpdemux/internal/core"
	"tcpdemux/internal/flat"
	"tcpdemux/internal/hashfn"
)

// TestLocalDemuxMatchesShared drives the same lookups through the
// single-writer local tier and the shared Demux wrapper, and checks the
// flushed metrics agree exactly — the two instrumentation paths must be
// observationally equivalent.
func TestLocalDemuxMatchesShared(t *testing.T) {
	drive := func(d core.Demuxer) {
		for i := uint32(0); i < 50; i++ {
			_ = d.Insert(core.NewPCB(testKey(i)))
		}
		for i := uint32(0); i < 200; i++ {
			d.Lookup(testKey(i%60), core.DirData) // mix of hits and misses
		}
	}

	rs := NewRegistry()
	ms := NewDemuxMetrics(rs, "x")
	drive(InstrumentDemuxer(core.NewSequentHash(19, hashfn.Multiplicative{}), ms, nil, nil))

	rl := NewRegistry()
	ml := NewDemuxMetrics(rl, "x")
	ld := InstrumentLocal(core.NewSequentHash(19, hashfn.Multiplicative{}), ml)
	drive(ld)
	ld.Flush()

	s, l := ms.ExaminedSnapshot(), ml.ExaminedSnapshot()
	if s.Count != l.Count || s.Sum != l.Sum || s.Max != l.Max {
		t.Fatalf("local and shared tiers disagree: shared %+v local %+v", s, l)
	}
	for i := range s.Bucket {
		if s.Bucket[i] != l.Bucket[i] {
			t.Fatalf("bucket %d: shared %d local %d", i, s.Bucket[i], l.Bucket[i])
		}
	}
	if ms.Hits() != ml.Hits() || ms.Misses() != ml.Misses() {
		t.Fatalf("outcome counts disagree: shared hit=%d miss=%d, local hit=%d miss=%d",
			ms.Hits(), ms.Misses(), ml.Hits(), ml.Misses())
	}
	if ml.Lookups() != 200 {
		t.Fatalf("lookups %d, want 200", ml.Lookups())
	}
}

// TestLocalDemuxFlushClears checks Flush both publishes and resets the
// private buffer, so double-flushing never double-counts.
func TestLocalDemuxFlushClears(t *testing.T) {
	r := NewRegistry()
	m := NewDemuxMetrics(r, "x")
	ld := InstrumentLocal(core.NewSequentHash(7, nil), m)
	_ = ld.Insert(core.NewPCB(testKey(1)))
	ld.Lookup(testKey(1), core.DirData)
	ld.Flush()
	ld.Flush()
	if got := m.Lookups(); got != 1 {
		t.Fatalf("double flush double-counted: lookups %d, want 1", got)
	}
	ld.Lookup(testKey(1), core.DirData)
	ld.Flush()
	if got := m.Lookups(); got != 2 {
		t.Fatalf("buffer not reusable after flush: lookups %d, want 2", got)
	}
}

// TestLocalDemuxConcurrentFlush runs one LocalDemux per goroutine, each
// over its own private table (the sharded deployment: one worker owns
// one table and one observer), all flushing into one shared metric
// bundle under the race detector, and checks the flushed totals are
// exact.
func TestLocalDemuxConcurrentFlush(t *testing.T) {
	r := NewRegistry()
	m := NewDemuxMetrics(r, "x")

	const workers = 8
	const each = 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ld := InstrumentLocal(core.NewSequentHash(19, hashfn.Multiplicative{}), m)
			defer ld.Flush()
			for i := uint32(0); i < 20; i++ {
				if err := ld.Insert(core.NewPCB(testKey(i))); err != nil {
					t.Error(err)
					return
				}
			}
			for i := 0; i < each; i++ {
				ld.Lookup(testKey(uint32((w+i)%25)), core.DirData)
			}
		}(w)
	}
	wg.Wait()
	if got := m.Lookups(); got != workers*each {
		t.Fatalf("lookups %d, want %d", got, workers*each)
	}
}

// TestLocalDemuxFlatBatchMatchesPerPacket runs one lookup stream through
// two LocalDemux observers over flat-hopscotch tables, one per packet
// and one in trains through the table's native pipelined batch path.
// Results, table statistics, and flushed observations must be identical.
func TestLocalDemuxFlatBatchMatchesPerPacket(t *testing.T) {
	const conns = 300
	// The same PCB objects go into both tables so Results compare
	// pointer-for-pointer.
	pcbs := make([]*core.PCB, conns)
	for i := range pcbs {
		pcbs[i] = core.NewPCB(testKey(uint32(i)))
	}
	build := func() (*LocalDemux, *DemuxMetrics) {
		m := NewDemuxMetrics(NewRegistry(), "flat-hopscotch")
		ld := InstrumentLocal(flat.NewHopscotch(0, nil), m)
		for _, p := range pcbs {
			if err := ld.Insert(p); err != nil {
				t.Fatal(err)
			}
		}
		return ld, m
	}
	per, mp := build()
	bat, mb := build()

	var stream []core.Key
	for i := uint32(0); i < 2000; i++ {
		stream = append(stream, testKey((i*7919)%(conns+40))) // ~12% misses
	}
	var out []core.Result
	for lo := 0; lo < len(stream); lo += 32 {
		hi := min(lo+32, len(stream))
		out = bat.LookupBatch(stream[lo:hi], core.DirData, out)
		for i, k := range stream[lo:hi] {
			want := per.Lookup(k, core.DirData)
			if out[i] != want {
				t.Fatalf("key %d: batch %+v, per-packet %+v", lo+i, out[i], want)
			}
		}
	}
	per.Flush()
	bat.Flush()

	if ps, bs := *per.Stats(), *bat.Stats(); ps != bs || ps.Lookups != uint64(len(stream)) {
		t.Fatalf("table stats diverge: per-packet %+v, batch %+v", ps, bs)
	}
	hp, hb := mp.ExaminedSnapshot(), mb.ExaminedSnapshot()
	if hp.Count != uint64(len(stream)) || hp.Count != hb.Count || hp.Sum != hb.Sum || hp.Max != hb.Max {
		t.Fatalf("observations diverge: per-packet %+v, batch %+v", hp, hb)
	}
	for i := range hp.Bucket {
		if hp.Bucket[i] != hb.Bucket[i] {
			t.Fatalf("bucket %d: per-packet %d, batch %d", i, hp.Bucket[i], hb.Bucket[i])
		}
	}
	if mp.Misses() == 0 || mp.Misses() != mb.Misses() {
		t.Fatalf("miss counts: per-packet %d, batch %d (want equal and nonzero)", mp.Misses(), mb.Misses())
	}
}
