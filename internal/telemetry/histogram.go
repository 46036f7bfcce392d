package telemetry

import (
	"math/bits"
	"sync/atomic"
)

// Histogram layout constants.
const (
	// histBuckets is the fixed bucket count: bucket 0 holds the value 0,
	// bucket i (i >= 1) holds [2^(i-1), 2^i - 1]. 28 buckets cover values
	// up to 2^27-1 exactly, with everything above clamped into the last
	// bucket — orders of magnitude beyond any examined-PCBs count this
	// repo produces.
	histBuckets = 28

	// histPackShift packs each bucket's observation count above its value
	// sum in one atomic word, so the hot path pays exactly one atomic add
	// for count, sum, and bucket placement together (the stripe idiom,
	// applied per bucket). The drain thresholds transfer the
	// word to the 64-bit spill counters long before either field can wrap:
	// the count field at 2^22 observations, the sum field at half its
	// 40-bit capacity.
	histPackShift = 40
	histPackMask  = 1<<histPackShift - 1
	histDrainAt   = uint64(1) << 62
	histSumDrain  = uint64(1) << 39

	// histMaxObserve clamps observations so a single value cannot
	// overflow the packed sum field.
	histMaxObserve = uint64(1)<<32 - 1
)

// histSlot is one stripe of a histogram: per-bucket packed count/sum
// words, their spill counters, and a running maximum. The arrays are
// atomic by construction (every element is only touched through
// atomic.Uint64 methods) but deliberately unmarked: the atomicfield
// analyzer recognizes direct field access, not indexed element access.
// The trailing pad rounds the slot to whole cache lines so neighbouring
// stripes never share one.
type histSlot struct {
	buckets    [histBuckets]atomic.Uint64
	spillCount [histBuckets]atomic.Uint64
	spillSum   [histBuckets]atomic.Uint64
	max        atomic.Int64 //demux:atomic
	_          [3]uint64
}

// Histogram is a striped log2-bucketed histogram of uint64 observations
// (PCBs examined per packet, chain lengths). Observe is zero-alloc and
// pays a single uncontended atomic add on the hot path.
type Histogram struct {
	name   string
	labels []Label
	slots  []histSlot
	mask   uint32
}

// newHistogram builds a histogram with stripes slots.
func newHistogram(name string, labels []Label, stripes int) *Histogram {
	return &Histogram{
		name:   name,
		labels: labels,
		slots:  make([]histSlot, stripes),
		mask:   uint32(stripes - 1),
	}
}

// Name returns the histogram's metric name.
func (h *Histogram) Name() string { return h.name }

// bucketOf maps a value to its log2 bucket index.
//
//demux:hotpath
func bucketOf(v uint64) int {
	b := bits.Len64(v)
	if b >= histBuckets {
		b = histBuckets - 1
	}
	return b
}

// BucketUpper returns the inclusive upper bound of bucket i (the
// Prometheus "le" value); the final bucket reports the clamp limit.
func BucketUpper(i int) uint64 {
	if i <= 0 {
		return 0
	}
	if i >= histBuckets-1 {
		return histMaxObserve
	}
	return 1<<uint(i) - 1
}

// BucketLower returns the inclusive lower bound of bucket i.
func BucketLower(i int) uint64 {
	if i <= 0 {
		return 0
	}
	return 1 << uint(i-1)
}

// Observe records one value: one atomic add on the bucket's packed
// count/sum word, plus a (rarely-written) running-max check.
//
//demux:hotpath
func (h *Histogram) Observe(v uint64) {
	if v > histMaxObserve {
		v = histMaxObserve
	}
	sl := &h.slots[stripeIdx(h.mask)]
	b := bucketOf(v)
	p := sl.buckets[b].Add(1<<histPackShift + v)
	if p >= histDrainAt || p&histPackMask >= histSumDrain {
		// Only the CAS winner transfers p; a racer's CAS fails harmlessly
		// and the next observation re-triggers the drain.
		if sl.buckets[b].CompareAndSwap(p, 0) {
			sl.spillCount[b].Add(p >> histPackShift)
			sl.spillSum[b].Add(p & histPackMask)
		}
	}
	sl.bumpMax(int64(v))
}

// bumpMax raises the slot's running maximum to at least v. The common
// case is a single atomic load and a not-taken branch.
//
//demux:hotpath
func (sl *histSlot) bumpMax(v int64) {
	for {
		cur := sl.max.Load()
		if v <= cur || sl.max.CompareAndSwap(cur, v) {
			return
		}
	}
}

// HistogramSnapshot is one histogram's folded state at snapshot time.
type HistogramSnapshot struct {
	Name   string   `json:"name"`
	Labels []Label  `json:"labels,omitempty"`
	Count  uint64   `json:"count"`
	Sum    uint64   `json:"sum"`
	Max    uint64   `json:"max"`
	Bucket []uint64 `json:"buckets"`
}

// Snapshot folds every stripe into one snapshot.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Name:   h.name,
		Labels: h.labels,
		Bucket: make([]uint64, histBuckets),
	}
	for i := range h.slots {
		sl := &h.slots[i]
		for b := 0; b < histBuckets; b++ {
			p := sl.buckets[b].Load()
			c := sl.spillCount[b].Load() + p>>histPackShift
			s.Bucket[b] += c
			s.Count += c
			s.Sum += sl.spillSum[b].Load() + p&histPackMask
		}
		if m := uint64(sl.max.Load()); m > s.Max {
			s.Max = m
		}
	}
	return s
}

// Mean returns the exact mean of all observations (the sum is tracked
// exactly, not reconstructed from buckets).
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Quantile estimates the q-th quantile (0 <= q <= 1) by linear
// interpolation within the containing log2 bucket. The estimate is
// always inside that bucket's [lower, upper] bounds, so its error is
// bounded by the bucket's factor-of-two width.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	if s.Count == 0 {
		return 0
	}
	target := q * float64(s.Count)
	cum := 0.0
	for i, c := range s.Bucket {
		next := cum + float64(c)
		if c > 0 && target <= next {
			lo, hi := float64(BucketLower(i)), float64(BucketUpper(i))
			frac := (target - cum) / float64(c)
			if frac < 0 {
				frac = 0
			}
			return lo + frac*(hi-lo)
		}
		cum = next
	}
	return float64(s.Max)
}

// Percentile is Quantile on the 0-100 scale.
func (s HistogramSnapshot) Percentile(p float64) float64 { return s.Quantile(p / 100) }
