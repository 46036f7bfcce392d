package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"tcpdemux/internal/core"
	"tcpdemux/internal/engine"
)

// Spans are recorded from the benchmark's own files, around the calls it
// makes into each layer: the replay loop opens one span per program call
// (Deliver, Tick, Release), and the demuxer decorator, the TPC/A handler
// and the egress tap open child spans inside it. Every span is folded
// into per-name totals; the first maxKeptSpans are also kept in memory
// and written out when the run ends.

type spanName uint8

const (
	spDeliver spanName = iota
	spTick
	spRelease
	spLookup
	spInsert
	spRemove
	spNotify
	spApp
	spTap
	nSpanNames
)

var spanNames = [nSpanNames]string{
	"shard.deliver", "shard.tick", "shard.release",
	"core.lookup", "core.insert", "core.remove", "core.notify_send",
	"server.app", "engine.egress_tap",
}

// opSpan maps a replayed call to its span name.
var opSpan = [...]spanName{opDeliver: spDeliver, opTick: spTick, opRelease: spRelease}

type span struct {
	name       spanName
	parent     int32 // index of the enclosing span, -1 for a call span
	txn        int32 // transaction the span is charged to, -1 for none
	start, end int64 // ns since the run's epoch
}

const maxKeptSpans = 1 << 16

var epoch = time.Now()

// clock reads the monotonic clock as ns since the run started.
func clock() int64 { return int64(time.Since(epoch)) }

type tracer struct {
	kept   []span
	on     bool  // spans are recorded only while the timed ops run
	cur    int32 // kept index of the open call span, or -1
	curTxn int32
	sum    [nSpanNames]int64
	n      [nSpanNames]int64

	lookups, examined, hits uint64
	maxExamined             int
}

func newTracer() *tracer { return &tracer{kept: make([]span, 0, maxKeptSpans), cur: -1} }

// begin opens the span of one replayed call.
func (t *tracer) begin(name spanName, txn int32, start int64) {
	t.curTxn = txn
	t.cur = -1
	if len(t.kept) < cap(t.kept) {
		t.cur = int32(len(t.kept))
		t.kept = append(t.kept, span{name: name, parent: -1, txn: txn, start: start})
	}
}

// end closes the open call span.
func (t *tracer) end(name spanName, start, end int64) {
	t.sum[name] += end - start
	t.n[name]++
	if t.cur >= 0 {
		t.kept[t.cur].end = end
	}
}

// child records a span nested in the open call span.
func (t *tracer) child(name spanName, start, end int64) {
	if !t.on {
		return
	}
	t.sum[name] += end - start
	t.n[name]++
	if len(t.kept) < cap(t.kept) {
		t.kept = append(t.kept, span{name: name, parent: t.cur, txn: t.curTxn, start: start, end: end})
	}
}

// mean returns the average raw duration of the named span in ns.
func (t *tracer) mean(name spanName) float64 {
	if t.n[name] == 0 {
		return 0
	}
	return float64(t.sum[name]) / float64(t.n[name])
}

// write dumps the kept spans as tab-separated rows.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id\tparent\ttxn\tname\tstart_ns\tend_ns")
	for i, s := range t.kept {
		fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%d\t%d\n", i, s.parent, s.txn, spanNames[s.name], s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedDemux is a transparent core.Demuxer decorator: it forwards every
// call to the shard's own table and times the ones on the frame path.
type tracedDemux struct {
	core.Demuxer
	tr *tracer
}

func (d tracedDemux) Lookup(k core.Key, dir core.Direction) core.Result {
	t0 := clock()
	r := d.Demuxer.Lookup(k, dir)
	d.tr.child(spLookup, t0, clock())
	if !d.tr.on {
		return r
	}
	d.tr.lookups++
	d.tr.examined += uint64(r.Examined)
	if r.CacheHit {
		d.tr.hits++
	}
	if r.Examined > d.tr.maxExamined {
		d.tr.maxExamined = r.Examined
	}
	return r
}

func (d tracedDemux) Insert(p *core.PCB) error {
	t0 := clock()
	err := d.Demuxer.Insert(p)
	d.tr.child(spInsert, t0, clock())
	return err
}

func (d tracedDemux) Remove(k core.Key) bool {
	t0 := clock()
	ok := d.Demuxer.Remove(k)
	d.tr.child(spRemove, t0, clock())
	return ok
}

func (d tracedDemux) NotifySend(p *core.PCB) {
	t0 := clock()
	d.Demuxer.NotifySend(p)
	d.tr.child(spNotify, t0, clock())
}

// tracedHandler times the application handler.
func tracedHandler(h engine.Handler, tr *tracer) engine.Handler {
	return func(c *engine.Conn, payload []byte) []byte {
		t0 := clock()
		resp := h(c, payload)
		tr.child(spApp, t0, clock())
		return resp
	}
}

// clockCost measures the cost of one clock read, the overhead every span
// boundary adds.
func clockCost() float64 {
	const n = 1 << 20
	t0 := clock()
	var x int64
	for i := 0; i < n; i++ {
		x += clock()
	}
	sink = x
	return float64(clock()-t0) / n
}

var sink int64
