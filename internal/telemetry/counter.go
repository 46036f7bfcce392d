package telemetry

import (
	"math"
	"sync/atomic"
	"unsafe"
)

// counterSlot is one cache-line-padded stripe of a counter. Padding to
// 64 bytes keeps concurrent writers on different slots from bouncing a
// line between CPUs.
type counterSlot struct {
	v atomic.Uint64 //demux:atomic
	_ [56]byte
}

// Counter is a monotonically increasing striped counter. Inc and Add
// are zero-alloc and safe for concurrent use; Value folds the stripes.
type Counter struct {
	name   string
	labels []Label
	slots  []counterSlot
	mask   uint32
}

// newCounter builds a counter with stripes slots (rounded up to a power
// of two by the registry).
func newCounter(name string, labels []Label, stripes int) *Counter {
	return &Counter{
		name:   name,
		labels: labels,
		slots:  make([]counterSlot, stripes),
		mask:   uint32(stripes - 1),
	}
}

// Name returns the counter's metric name.
func (c *Counter) Name() string { return c.name }

// stripeIdx picks the stripe for the calling goroutine. Go offers no
// portable P or goroutine identifier, so this hashes the address of a
// stack-local marker byte: goroutines occupy distinct stacks, which
// spreads concurrent recorders across slots. The uintptr is used only as
// hash input, never converted back to a pointer. Correctness never
// depends on the spreading — any goroutine may fold into any slot —
// only contention does.
//
//demux:hotpath
func stripeIdx(mask uint32) uint32 {
	var marker byte
	p := uintptr(unsafe.Pointer(&marker))
	return uint32((p>>6)^(p>>16)) & mask
}

// Inc adds one.
//
//demux:hotpath
func (c *Counter) Inc() {
	c.slots[stripeIdx(c.mask)].v.Add(1)
}

// Add adds n.
//
//demux:hotpath
func (c *Counter) Add(n uint64) {
	c.slots[stripeIdx(c.mask)].v.Add(n)
}

// Value folds every stripe into the counter's total.
func (c *Counter) Value() uint64 {
	var total uint64
	for i := range c.slots {
		total += c.slots[i].v.Load()
	}
	return total
}

// Gauge is a last-value-wins float64 metric (chain skew ratio, live
// chain count). A gauge is a single atomic word — it is written on rare
// watchdog samples, not per packet, so striping would buy nothing.
type Gauge struct {
	name   string
	labels []Label
	bits   atomic.Uint64 //demux:atomic
}

// Name returns the gauge's metric name.
func (g *Gauge) Name() string { return g.name }

// Set stores v.
//
//demux:hotpath
func (g *Gauge) Set(v float64) {
	g.bits.Store(math.Float64bits(v))
}

// Value returns the last stored value (0 before any Set).
func (g *Gauge) Value() float64 {
	return math.Float64frombits(g.bits.Load())
}
