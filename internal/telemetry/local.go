package telemetry

import (
	"tcpdemux/internal/core"
)

// Outcome indices into DemuxMetrics' per-outcome histograms, as the
// local observer buffers them.
const (
	outcomeHit = iota
	outcomeFound
	outcomeMiss
	outcomeWildcard
	outcomeCount
)

// localCells flattens the (outcome, bucket) grid and pads it to a power
// of two, so the hot path can mask the cell index instead of paying a
// bounds check.
const localCells = 128

// LocalDemux is the single-writer instrumentation tier: a per-goroutine
// wrapper that accumulates lookup observations with plain (non-atomic)
// adds into private memory and folds them into the shared DemuxMetrics
// histograms on Flush. This is the per-CPU-counter idiom: even an
// uncontended LOCK-prefixed add costs ~10ns on commodity hardware —
// more than the whole 5% overhead budget for a ~120ns lookup — while a
// plain add into a private cache line costs under a nanosecond.
//
// The contract is exactly single-writer: each LocalDemux and the
// core.Demuxer it wraps belong to one goroutine (one shard worker), and
// Flush must be called by that same goroutine (typically deferred at
// worker exit) before anyone reads the shared histograms. For flight
// recording, use InstrumentDemuxer instead.
type LocalDemux struct {
	inner core.Demuxer
	m     *DemuxMetrics
	// The observation buffers belong to the owning goroutine's localtier
	// role: only observe (the accumulate path) and Flush (the drain path)
	// may touch them, which demuxvet's singlewriter analyzer enforces.
	counts [localCells]uint64   //demux:singlewriter(owner=localtier)
	sums   [localCells]uint64   //demux:singlewriter(owner=localtier)
	max    [outcomeCount]uint64 //demux:singlewriter(owner=localtier)
}

// InstrumentLocal wraps inner with a private observation buffer folding
// into m on Flush.
func InstrumentLocal(inner core.Demuxer, m *DemuxMetrics) *LocalDemux {
	return &LocalDemux{inner: inner, m: m}
}

// observe folds one result into the private buffer: three plain adds,
// no atomics, no allocation.
//
//demux:hotpath
//demux:owner(localtier)
func (l *LocalDemux) observe(r core.Result) {
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
	if v > histMaxObserve {
		v = histMaxObserve
	}
	c := uint32(o*histBuckets+bucketOf(v)) % localCells
	l.counts[c]++
	l.sums[c] += v
	if v > l.max[o] {
		l.max[o] = v
	}
}

// Flush folds the private buffer into the shared histograms (via their
// spill counters, which Snapshot already sums) and clears it. Totals
// are exact after every owner has flushed.
//
//demux:owner(localtier)
func (l *LocalDemux) Flush() {
	hs := [outcomeCount]*Histogram{
		outcomeHit:      l.m.hit,
		outcomeFound:    l.m.found,
		outcomeMiss:     l.m.miss,
		outcomeWildcard: l.m.wildcard,
	}
	for o, h := range hs {
		sl := &h.slots[stripeIdx(h.mask)]
		for b := 0; b < histBuckets; b++ {
			c := o*histBuckets + b
			if n := l.counts[c]; n != 0 {
				sl.spillCount[b].Add(n)
				sl.spillSum[b].Add(l.sums[c])
				l.counts[c], l.sums[c] = 0, 0
			}
		}
		if m := l.max[o]; m != 0 {
			sl.bumpMax(int64(m))
			l.max[o] = 0
		}
	}
}

// Name implements core.Demuxer.
func (l *LocalDemux) Name() string { return l.inner.Name() }

// Insert implements core.Demuxer.
func (l *LocalDemux) Insert(p *core.PCB) error { return l.inner.Insert(p) }

// Remove implements core.Demuxer.
func (l *LocalDemux) Remove(k core.Key) bool { return l.inner.Remove(k) }

// NotifySend implements core.Demuxer.
func (l *LocalDemux) NotifySend(p *core.PCB) { l.inner.NotifySend(p) }

// Len implements core.Demuxer.
func (l *LocalDemux) Len() int { return l.inner.Len() }

// Stats implements core.Demuxer (the inner demuxer's live counters).
func (l *LocalDemux) Stats() *core.Stats { return l.inner.Stats() }

// Walk implements core.Demuxer.
func (l *LocalDemux) Walk(fn func(*core.PCB) bool) { l.inner.Walk(fn) }

// Lookup implements core.Demuxer, observing into the private buffer.
//
//demux:hotpath
func (l *LocalDemux) Lookup(k core.Key, dir core.Direction) core.Result {
	r := l.inner.Lookup(k, dir)
	l.observe(r)
	return r
}

// LookupBatch implements core.Batcher: the train resolves through the
// inner table's native batch path when it has one (core.LookupBatch
// falls back to per-key Lookup otherwise), and every result is observed.
//
//demux:hotpath
func (l *LocalDemux) LookupBatch(keys []core.Key, dir core.Direction, out []core.Result) []core.Result {
	out = core.LookupBatch(l.inner, keys, dir, out)
	for i := range out {
		l.observe(out[i])
	}
	return out
}

var (
	_ core.Demuxer = (*LocalDemux)(nil)
	_ core.Batcher = (*LocalDemux)(nil)
)
