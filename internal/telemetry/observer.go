package telemetry

import (
	"tcpdemux/internal/core"
)

// Lookup outcomes, the index into DemuxMetrics' per-outcome histograms.
// The classes are mutually exclusive (miss, else wildcard match, else
// cache hit, else plain chain hit), so the per-outcome counts sum to the
// lookup count — unlike core.Stats.Record, which keeps overlapping
// tallies.
const (
	outcomeHit = iota
	outcomeFound
	outcomeMiss
	outcomeWildcard
	outcomeCount
)

// DemuxMetrics is the per-discipline lookup instrument bundle: one
// examined-PCBs histogram per lookup outcome, labeled by discipline and
// outcome. The per-outcome counts (cache hits, misses, wildcard
// matches) fall out of the histogram counts, and the conditional
// distributions tell the paper's story directly: misses walk the whole
// chain, cache hits stop at the head. Lookups reach it only through an
// Observer.
type DemuxMetrics struct {
	h [outcomeCount]*Histogram
}

// NewDemuxMetrics registers (or finds) the demux metric family for one
// discipline label.
func NewDemuxMetrics(r *Registry, discipline string) *DemuxMetrics {
	m := &DemuxMetrics{}
	for o, name := range [outcomeCount]string{
		outcomeHit:      "hit",
		outcomeFound:    "found",
		outcomeMiss:     "miss",
		outcomeWildcard: "wildcard",
	} {
		m.h[o] = r.Histogram("demux_examined_pcbs",
			L("discipline", discipline), L("outcome", name))
	}
	return m
}

// ExaminedSnapshot merges the per-outcome histograms into the overall
// examined-PCBs distribution for the discipline.
func (m *DemuxMetrics) ExaminedSnapshot() HistogramSnapshot {
	merged := HistogramSnapshot{
		Name:   "demux_examined_pcbs",
		Labels: m.h[outcomeFound].labels[:1:1], // discipline only
		Bucket: make([]uint64, histBuckets),
	}
	for _, h := range m.h {
		s := h.Snapshot()
		merged.Count += s.Count
		merged.Sum += s.Sum
		merged.Max = max(merged.Max, s.Max)
		for i, c := range s.Bucket {
			merged.Bucket[i] += c
		}
	}
	return merged
}

// count returns one outcome's observed lookup count.
func (m *DemuxMetrics) count(o int) uint64 { return m.h[o].Snapshot().Count }

// Lookups returns the total observed lookup count.
func (m *DemuxMetrics) Lookups() uint64 { return m.ExaminedSnapshot().Count }

// Hits returns the observed cache-hit count.
func (m *DemuxMetrics) Hits() uint64 { return m.count(outcomeHit) }

// Misses returns the observed miss count.
func (m *DemuxMetrics) Misses() uint64 { return m.count(outcomeMiss) }

// WildcardHits returns the observed wildcard-match count.
func (m *DemuxMetrics) WildcardHits() uint64 { return m.count(outcomeWildcard) }

// localCells flattens the (outcome, bucket) grid and pads it to a power
// of two, so the hot path can mask the cell index instead of paying a
// bounds check.
const localCells = 128

// Observer is the lookup observation path: code that holds a
// core.Result from a table it owns calls Observe, which accumulates
// with plain (non-atomic) adds into private memory, and Flush folds the
// buffer into the shared DemuxMetrics histograms. This is the
// per-CPU-counter idiom: even an uncontended LOCK-prefixed add costs
// ~10ns on commodity hardware — more than the whole 5% overhead budget
// for a ~120ns lookup — while a plain add into a private cache line
// costs under a nanosecond.
//
// The contract is exactly single-writer: an Observer belongs to the one
// goroutine that owns the table it observes (a shard worker), and Flush
// must be called by that same goroutine before anyone reads the shared
// histograms. Observers on different goroutines may flush into one
// DemuxMetrics concurrently.
type Observer struct {
	m *DemuxMetrics
	// The observation buffers belong to the owning goroutine's localtier
	// role: only Observe (the accumulate path) and Flush (the drain path)
	// may touch them, which demuxvet's singlewriter analyzer enforces.
	counts [localCells]uint64   //demux:singlewriter(owner=localtier)
	sums   [outcomeCount]uint64 //demux:singlewriter(owner=localtier)
	max    [outcomeCount]uint64 //demux:singlewriter(owner=localtier)
}

// NewObserver returns an empty observer folding into m on Flush.
func NewObserver(m *DemuxMetrics) *Observer {
	return &Observer{m: m}
}

// Observe classifies one lookup result and folds it into the private
// buffer: plain adds, no atomics, no allocation.
//
//demux:hotpath
//demux:owner(localtier)
func (ob *Observer) Observe(r core.Result) {
	o := outcomeFound
	switch {
	case r.PCB == nil:
		o = outcomeMiss
	case r.Wildcard:
		o = outcomeWildcard
	case r.CacheHit:
		o = outcomeHit
	}
	v := min(uint64(r.Examined), histMaxObserve)
	ob.counts[uint32(o*histBuckets+bucketOf(v))%localCells]++
	ob.sums[o] += v
	if v > ob.max[o] {
		ob.max[o] = v
	}
}

// Flush folds the private buffer into the shared histograms and clears
// it. Totals are exact after every owner has flushed.
//
//demux:owner(localtier)
func (ob *Observer) Flush() {
	for o, h := range ob.m.h {
		for b := 0; b < histBuckets; b++ {
			c := o*histBuckets + b
			if n := ob.counts[c]; n != 0 {
				h.counts[b].Add(n)
				ob.counts[c] = 0
			}
		}
		if ob.sums[o] != 0 {
			h.sum.Add(ob.sums[o])
			ob.sums[o] = 0
		}
		if ob.max[o] != 0 {
			h.bumpMax(ob.max[o])
			ob.max[o] = 0
		}
	}
}
