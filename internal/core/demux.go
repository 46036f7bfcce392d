package core

import (
	"errors"
	"fmt"
)

// Errors returned by demuxer mutation methods.
var (
	// ErrDuplicateKey is returned by Insert when a PCB with the same key is
	// already present.
	ErrDuplicateKey = errors.New("core: PCB with this key already inserted")
)

// Result reports the outcome of one demultiplexing lookup.
type Result struct {
	// PCB is the best-matching PCB, or nil if no PCB matched.
	PCB *PCB
	// Examined is the number of PCBs the algorithm touched to produce this
	// result, including cache probes — the paper's figure of merit.
	Examined int
	// CacheHit reports whether a one-entry cache satisfied the lookup
	// without a list walk.
	CacheHit bool
	// Wildcard reports whether the match was a listener (wildcard) rather
	// than an exact connection match.
	Wildcard bool
}

// Demuxer locates the PCB for an inbound TCP segment. Implementations
// account the number of PCBs they examine per lookup, since moving PCBs
// between memory and the on-chip cache dominates lookup cost (paper §3).
//
// Implementations are not safe for concurrent use.
type Demuxer interface {
	// Name identifies the algorithm in reports.
	Name() string

	// Insert adds a PCB. Keys must be unique; wildcard keys register
	// listeners. The PCB's Key must not change while inserted.
	Insert(p *PCB) error

	// Remove deletes the PCB with exactly this key, reporting whether it
	// was present.
	Remove(k Key) bool

	// Lookup finds the PCB for an inbound packet with the given exact key.
	// dir tells direction-sensitive algorithms whether the packet carries
	// data or is a pure acknowledgement. If no connection matches exactly,
	// the best-matching wildcard listener (if any) is returned.
	Lookup(k Key, dir Direction) Result

	// NotifySend records that a segment was transmitted on p's connection.
	// Only send-aware algorithms (SRCache) use this; others ignore it.
	NotifySend(p *PCB)

	// Len returns the number of inserted PCBs, listeners included.
	Len() int

	// Stats returns the accumulated lookup statistics. The pointer stays
	// valid and live for the demuxer's lifetime.
	Stats() *Stats

	// Walk calls fn for every inserted PCB (listeners included) until fn
	// returns false. Iteration order is implementation-defined. The PCB
	// set must not be mutated during the walk.
	Walk(fn func(*PCB) bool)
}

// Batcher is implemented by demuxers with a native batched lookup path
// (the flat open-addressing tables' prefetch pipeline, and the
// instrumentation wrappers that forward to one). The Result sequence and
// statistics must equal calling Lookup once per key in order.
type Batcher interface {
	LookupBatch(keys []Key, dir Direction, out []Result) []Result
}

// LookupBatch resolves a train of keys through d, writing one Result per
// key (in key order) into out, which is reused when it has capacity. It
// takes d's native batch path when d is a Batcher and falls back to
// per-key Lookup otherwise.
//
//demux:hotpath
func LookupBatch(d Demuxer, keys []Key, dir Direction, out []Result) []Result {
	if b, ok := d.(Batcher); ok {
		return b.LookupBatch(keys, dir, out)
	}
	if cap(out) < len(keys) {
		out = make([]Result, len(keys)) //demux:allowalloc amortized: grows the caller-owned result buffer once, then reused across trains
	}
	out = out[:len(keys)]
	for i, k := range keys {
		out[i] = d.Lookup(k, dir)
	}
	return out
}

// Stats accumulates per-demuxer lookup cost statistics.
type Stats struct {
	// Lookups is the total number of Lookup calls.
	Lookups uint64
	// Hits counts lookups satisfied by a one-entry cache.
	Hits uint64
	// Misses counts lookups that found no PCB at all.
	Misses uint64
	// WildcardHits counts lookups resolved to a listener.
	WildcardHits uint64
	// Examined is the total number of PCBs examined across all lookups.
	Examined uint64
	// MaxExamined is the largest single-lookup examination count.
	MaxExamined int
}

// Record folds one lookup result into the statistics, classifying it
// exactly as the built-in demuxers do. Exported for wrapper demuxers —
// overload.Guarded probes two inner tables during an online rehash and
// must account each logical lookup once, in its own Stats, rather than
// inherit the per-table counts.
func (s *Stats) Record(r Result) { s.record(r) }

// record folds one lookup result into the statistics.
func (s *Stats) record(r Result) {
	s.Lookups++
	s.Examined += uint64(r.Examined)
	if r.Examined > s.MaxExamined {
		s.MaxExamined = r.Examined
	}
	switch {
	case r.PCB == nil:
		s.Misses++
	case r.CacheHit:
		s.Hits++
	}
	if r.PCB != nil && r.Wildcard {
		s.WildcardHits++
	}
}

// MeanExamined returns the average PCBs examined per lookup — directly
// comparable to the paper's C(N) expressions.
func (s *Stats) MeanExamined() float64 {
	if s.Lookups == 0 {
		return 0
	}
	return float64(s.Examined) / float64(s.Lookups)
}

// HitRate returns the cache hit fraction.
func (s *Stats) HitRate() float64 {
	if s.Lookups == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Lookups)
}

// Reset zeroes the statistics (e.g. after simulation warm-up).
func (s *Stats) Reset() { *s = Stats{} }

// String summarizes the statistics.
func (s *Stats) String() string {
	return fmt.Sprintf("lookups=%d hits=%d (%.2f%%) misses=%d mean-examined=%.2f max=%d",
		s.Lookups, s.Hits, s.HitRate()*100, s.Misses, s.MeanExamined(), s.MaxExamined)
}
