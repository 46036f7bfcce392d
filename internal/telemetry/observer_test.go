package telemetry

import (
	"sync"
	"testing"

	"tcpdemux/internal/core"
	"tcpdemux/internal/flat"
	"tcpdemux/internal/hashfn"
)

// TestLocalDemuxMatchesShared drives a mix of hits and misses through a
// table and an Observer, and checks the flushed metrics against an
// in-test oracle: it buckets each returned core.Result by outcome and
// log2 bucket, and its totals must also agree with the table's own
// core.Stats.
func TestLocalDemuxMatchesShared(t *testing.T) {
	d := core.NewSequentHash(19, hashfn.Multiplicative{})
	if err := d.Insert(core.NewListenPCB(core.ListenKey(testKey(0).Tuple().DstAddr, 80))); err != nil {
		t.Fatal(err)
	}
	for i := uint32(0); i < 50; i++ {
		if err := d.Insert(core.NewPCB(testKey(i))); err != nil {
			t.Fatal(err)
		}
	}
	m := NewDemuxMetrics(NewRegistry(), "x")
	ob := NewObserver(m)

	var want [outcomeCount]HistogramSnapshot
	for o := range want {
		want[o].Bucket = make([]uint64, histBuckets)
	}
	for i := uint32(0); i < 200; i++ {
		k := testKey(i / 2 % 60) // found, a cache hit on the repeat, and wildcard matches
		if i%7 == 0 {
			k = testKey(i + 5000) // a miss: no listener on its port
			k.LocalPort = 81
		}
		r := d.Lookup(k, core.DirData)
		ob.Observe(r)
		o := outcomeFound
		switch {
		case r.PCB == nil:
			o = outcomeMiss
		case r.Wildcard:
			o = outcomeWildcard
		case r.CacheHit:
			o = outcomeHit
		}
		v := uint64(r.Examined)
		want[o].Count++
		want[o].Sum += v
		want[o].Bucket[bucketOf(v)]++
		want[o].Max = max(want[o].Max, v)
	}
	ob.Flush()

	var total HistogramSnapshot
	for o, h := range m.h {
		got := h.Snapshot()
		if got.Count != want[o].Count || got.Sum != want[o].Sum || got.Max != want[o].Max {
			t.Fatalf("outcome %d: got %+v, oracle %+v", o, got, want[o])
		}
		for b := range got.Bucket {
			if got.Bucket[b] != want[o].Bucket[b] {
				t.Fatalf("outcome %d bucket %d: got %d, oracle %d", o, b, got.Bucket[b], want[o].Bucket[b])
			}
		}
		if want[o].Count == 0 {
			t.Fatalf("outcome %d never exercised", o)
		}
		total.Count += got.Count
		total.Sum += got.Sum
		total.Max = max(total.Max, got.Max)
	}
	st := d.Stats()
	if total.Count != st.Lookups || total.Sum != st.Examined || total.Max != uint64(st.MaxExamined) {
		t.Fatalf("observed %d lookups / %d examined / max %d, table stats %+v",
			total.Count, total.Sum, total.Max, *st)
	}
	if m.Hits() != st.Hits || m.Misses() != st.Misses || m.WildcardHits() != st.WildcardHits {
		t.Fatalf("outcome counts hit=%d miss=%d wild=%d, table stats %+v",
			m.Hits(), m.Misses(), m.WildcardHits(), *st)
	}
}

// TestLocalDemuxFlushClears checks Flush both publishes and resets the
// private buffer, so double-flushing never double-counts.
func TestLocalDemuxFlushClears(t *testing.T) {
	m := NewDemuxMetrics(NewRegistry(), "x")
	ob := NewObserver(m)
	d := core.NewSequentHash(7, nil)
	_ = d.Insert(core.NewPCB(testKey(1)))
	ob.Observe(d.Lookup(testKey(1), core.DirData))
	ob.Flush()
	ob.Flush()
	if got := m.Lookups(); got != 1 {
		t.Fatalf("double flush double-counted: lookups %d, want 1", got)
	}
	ob.Observe(d.Lookup(testKey(1), core.DirData))
	ob.Flush()
	if got := m.Lookups(); got != 2 {
		t.Fatalf("buffer not reusable after flush: lookups %d, want 2", got)
	}
}

// TestLocalDemuxConcurrentFlush runs one Observer per goroutine, each
// over its own private table (the sharded deployment: one worker owns
// one table and one observer), all flushing into one shared metric
// bundle under the race detector, and checks the flushed totals are
// exact.
func TestLocalDemuxConcurrentFlush(t *testing.T) {
	m := NewDemuxMetrics(NewRegistry(), "x")

	const workers = 8
	const each = 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			d := core.NewSequentHash(19, hashfn.Multiplicative{})
			ob := NewObserver(m)
			defer ob.Flush()
			for i := uint32(0); i < 20; i++ {
				if err := d.Insert(core.NewPCB(testKey(i))); err != nil {
					t.Error(err)
					return
				}
			}
			for i := 0; i < each; i++ {
				ob.Observe(d.Lookup(testKey(uint32((w+i)%25)), core.DirData))
			}
		}(w)
	}
	wg.Wait()
	if got := m.Lookups(); got != workers*each {
		t.Fatalf("lookups %d, want %d", got, workers*each)
	}
}

// TestLocalDemuxFlatBatchMatchesPerPacket runs one lookup stream
// through two flat-hopscotch tables, one per packet and one in trains
// through the table's native pipelined batch path, observing every
// Result. Results, table statistics, and flushed observations must be
// identical.
func TestLocalDemuxFlatBatchMatchesPerPacket(t *testing.T) {
	const conns = 300
	// The same PCB objects go into both tables so Results compare
	// pointer-for-pointer.
	pcbs := make([]*core.PCB, conns)
	for i := range pcbs {
		pcbs[i] = core.NewPCB(testKey(uint32(i)))
	}
	build := func() (core.Demuxer, *Observer, *DemuxMetrics) {
		m := NewDemuxMetrics(NewRegistry(), "flat-hopscotch")
		d := flat.NewHopscotch(0, nil)
		for _, p := range pcbs {
			if err := d.Insert(p); err != nil {
				t.Fatal(err)
			}
		}
		return d, NewObserver(m), m
	}
	per, op, mp := build()
	bat, ob, mb := build()

	var stream []core.Key
	for i := uint32(0); i < 2000; i++ {
		stream = append(stream, testKey((i*7919)%(conns+40))) // ~12% misses
	}
	var out []core.Result
	for lo := 0; lo < len(stream); lo += 32 {
		hi := min(lo+32, len(stream))
		out = core.LookupBatch(bat, stream[lo:hi], core.DirData, out)
		for i, k := range stream[lo:hi] {
			ob.Observe(out[i])
			want := per.Lookup(k, core.DirData)
			op.Observe(want)
			if out[i] != want {
				t.Fatalf("key %d: batch %+v, per-packet %+v", lo+i, out[i], want)
			}
		}
	}
	op.Flush()
	ob.Flush()

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
