package main

import (
	"bytes"
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"syscall"
	"time"

	"tcpdemux/internal/core"
	"tcpdemux/internal/server"
	"tcpdemux/internal/shard"
)

// replayer runs timed passes of a recording. Each pass builds a fresh
// StackSet with the recording's seed, replays the set-up ops (timed as
// set-up), then replays the timed ops with one clock read per program
// call, charging each call's duration to its transaction.
type replayer struct {
	rec *recording
	got frameSet // egress tap target, preallocated
	svc []int64  // per-transaction service time of the current pass, ns
}

// setSnap is the program-side state a pass reads before and after its
// timed ops.
type setSnap struct {
	lookups, examined []uint64 // per shard
	fired             uint64   // lifecycle timer expiries
	drops             uint64   // engine drops, all reasons
	steered           []uint64
	inboxFull         uint64
	acc               shard.Accounting
}

func snapshot(set *shard.StackSet) setSnap {
	s := setSnap{steered: slices.Clone(set.Steered), inboxFull: set.InboxFullEvents, acc: set.Accounting()}
	for i := 0; i < set.Shards(); i++ {
		st := set.Shard(i).Demuxer().Stats()
		s.lookups = append(s.lookups, st.Lookups)
		s.examined = append(s.examined, st.Examined)
		e := set.Shard(i).Stats()
		s.drops += e.DroppedBadChecksum + e.DroppedBadFrame + e.DroppedNoRoute +
			e.DroppedNoListener + e.DroppedRST + e.DroppedBacklogFull + e.DroppedBadCookie + e.SynDrops
	}
	r, a, se, tw := set.LifecycleCounters()
	s.fired = r + a + se + tw
	return s
}

// passStats is one pass's measurements and failures.
type passStats struct {
	traced      bool
	wall        int64 // ns over the timed ops
	cpu         int64 // process CPU ns over the timed ops
	mallocs     uint64
	setup       float64 // seconds
	heapPerConn float64 // bytes
	frames      int     // timed Deliver calls
	egress      int     // egress frames during the timed ops
	lookups     []uint64
	examined    []uint64
	fired       uint64
	steered     []uint64
	shed        uint64
	inboxFull   uint64
	attempted   int
	failed      int
	problems    []string
	svc         []int64 // per-transaction service times, ns
}

func (p *passStats) fail(n int, format string, args ...any) {
	p.failed += n
	if len(p.problems) < 8 {
		p.problems = append(p.problems, fmt.Sprintf(format, args...))
	}
}

func newReplayer(rec *recording) *replayer {
	// Room for the expected egress and then some, so the tap never
	// allocates; a pass that emits more has failed anyway.
	got := frameSet{
		buf:  make([]byte, 0, 2*len(rec.egress.buf)+1<<16),
		ends: make([]int32, 0, 2*rec.egress.n()+1024),
	}
	return &replayer{rec: rec, got: got, svc: make([]int64, rec.txns)}
}

func cpuNow() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// run replays ops against set. With tr set, each call gets a span; with
// svc set, each call's duration is charged to its transaction.
func (p *replayer) run(set *shard.StackSet, ops []op, tr *tracer, svc []int64) (wall int64, failed int) {
	frames, keys := &p.rec.frames, p.rec.keys
	start := clock()
	prev := start
	for i := range ops {
		o := &ops[i]
		if tr != nil {
			tr.begin(opSpan[o.kind], o.txn, prev)
		}
		switch o.kind {
		case opDeliver:
			if _, err := set.Deliver(frames.at(int(o.arg))); err != nil {
				failed++
			}
		case opTick:
			set.Tick(o.now)
		case opRelease:
			set.Release(keys[o.arg])
		}
		now := clock()
		if tr != nil {
			tr.end(opSpan[o.kind], prev, now)
		}
		if svc != nil && o.txn >= 0 {
			svc[o.txn] += now - prev
		}
		prev = now
	}
	return prev - start, failed
}

// pass runs one pass; tr non-nil makes it a traced pass.
func (p *replayer) pass(tr *tracer) (passStats, error) {
	rec := p.rec
	ps := passStats{traced: tr != nil}
	p.got.reset()
	clear(p.svc)
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	heap0 := ms.HeapAlloc

	t0 := time.Now()
	handler := tpcaHandler(server.NewLedger())
	var wrap func(core.Demuxer) core.Demuxer
	tap := func(f []byte) { p.got.add(f) }
	if tr != nil {
		wrap = func(d core.Demuxer) core.Demuxer { return tracedDemux{Demuxer: d, tr: tr} }
		handler = tracedHandler(handler, tr)
		tap = func(f []byte) {
			t0 := clock()
			p.got.add(f)
			tr.child(spTap, t0, clock())
		}
	}
	set, err := newSet(rec.cfg, wrap)
	if err != nil {
		return ps, err
	}
	set.SetEgressTap(tap)
	if err := set.Listen(listenPort, handler); err != nil {
		return ps, err
	}
	_, failed := p.run(set, rec.setup, nil, nil)
	ps.setup = time.Since(t0).Seconds()
	if failed > 0 {
		ps.fail(failed, "%d set-up frames failed to deliver", failed)
	}
	setupEgress := p.got.n()

	runtime.GC()
	runtime.ReadMemStats(&ms)
	ps.heapPerConn = (float64(ms.HeapAlloc) - float64(heap0)) / float64(rec.conns)
	before := snapshot(set)
	mallocs0, cpu0 := ms.Mallocs, cpuNow()
	if tr != nil {
		tr.on = true
	}
	ps.wall, failed = p.run(set, rec.timed, tr, p.svc)
	if tr != nil {
		tr.on = false
	}
	ps.cpu = cpuNow() - cpu0
	runtime.ReadMemStats(&ms)
	ps.mallocs = ms.Mallocs - mallocs0
	after := snapshot(set)
	if failed > 0 {
		ps.fail(failed, "%d timed frames failed to deliver", failed)
	}

	for i := range after.lookups {
		ps.lookups = append(ps.lookups, after.lookups[i]-before.lookups[i])
		ps.examined = append(ps.examined, after.examined[i]-before.examined[i])
		ps.steered = append(ps.steered, after.steered[i]-before.steered[i])
	}
	for _, o := range rec.timed {
		if o.kind != opTick {
			ps.attempted++
		}
		if o.kind == opDeliver {
			ps.frames++
		}
	}
	for _, o := range rec.setup {
		if o.kind != opTick {
			ps.attempted++
		}
	}
	ps.egress = p.got.n() - setupEgress
	ps.fired = after.fired - before.fired
	ps.inboxFull = after.inboxFull - before.inboxFull
	ps.shed = after.acc.Shed

	ps.checkLedger(after.acc, after.drops)
	if n := egressMismatches(&p.got, &rec.egress); n > 0 {
		ps.fail(n, "%d egress frames differ from the oracle-checked recording", n)
	}
	return ps, nil
}

// checkLedger fails the pass unless the StackSet's conservation ledger
// balances with nothing shed and the engine dropped nothing.
func (p *passStats) checkLedger(acc shard.Accounting, drops uint64) {
	if !acc.Balanced() {
		p.fail(1, "StackSet ledger unbalanced: %+v", acc)
	}
	if acc.Shed > 0 {
		p.fail(int(acc.Shed), "%d frames shed", acc.Shed)
	}
	if drops > 0 {
		p.fail(int(drops), "%d frames dropped by the engine", drops)
	}
}

// egressMismatches counts positions where the replayed egress differs
// from the recorded one, plus any difference in length.
func egressMismatches(got, want *frameSet) int {
	n := got.n() - want.n()
	if n < 0 {
		n = -n
	}
	for i := 0; i < got.n() && i < want.n(); i++ {
		if !bytes.Equal(got.at(i), want.at(i)) {
			n++
		}
	}
	return n
}

// inprocRun aggregates every pass of one in-process run.
type inprocRun struct {
	rec    *recording
	passes []passStats
	tr     *tracer
	bare   *bareReplay // tpca-paper only
}

// replayFor runs passes for about d; with traced set, every other pass
// is traced.
func replayFor(rec *recording, d time.Duration, traced bool, bare *bareReplay) (*inprocRun, error) {
	rp := newReplayer(rec)
	run := &inprocRun{rec: rec, bare: bare}
	if traced {
		run.tr = newTracer()
	}
	deadline := time.Now().Add(d)
	for i := 0; i < 2 || time.Now().Before(deadline); i++ {
		var tr *tracer
		if traced && i%2 == 1 {
			tr = run.tr
		}
		// Each pass on one CPU, the passes taking turns over the CPUs,
		// as the live sub-runs do: a CPU the host slows for a while then
		// slows only its own passes.
		_, restore, err := pinToOneCPU(i)
		if err != nil {
			return nil, err
		}
		ps, err := rp.pass(tr)
		restore()
		if err != nil {
			return nil, err
		}
		if bare != nil {
			bare.check(&ps)
		}
		ps.svc = slices.Clone(rp.svc)
		run.passes = append(run.passes, ps)
	}
	return run, nil
}

// group returns the untraced (traced=false) or traced passes.
func (r *inprocRun) group(traced bool) []passStats {
	var g []passStats
	for _, p := range r.passes {
		if p.traced == traced {
			g = append(g, p)
		}
	}
	return g
}

// quiet returns the fastest tenth of passes (at least one). The host
// is shared, and other tenants slow stretches of several seconds of a
// run by 10-40% (most of all its memory accesses); each pass starts from
// a collected heap and includes its own share of garbage collection, so
// the fastest passes measure the program rather than its neighbours.
func quiet(passes []passStats) []passStats {
	q := slices.Clone(passes)
	slices.SortFunc(q, func(a, b passStats) int { return cmp.Compare(a.wall, b.wall) })
	return q[:(len(q)+9)/10]
}

// totals sums passes.
func totals(passes []passStats) (t passStats) {
	for _, p := range passes {
		t.wall += p.wall
		t.cpu += p.cpu
		t.mallocs += p.mallocs
		t.frames += p.frames
		t.egress += p.egress
		t.fired += p.fired
		t.shed += p.shed
		t.inboxFull += p.inboxFull
		t.svc = append(t.svc, p.svc...)
		if t.steered == nil {
			t.steered = make([]uint64, len(p.steered))
			t.lookups = make([]uint64, len(p.lookups))
			t.examined = make([]uint64, len(p.examined))
		}
		for i := range p.steered {
			t.steered[i] += p.steered[i]
			t.lookups[i] += p.lookups[i]
			t.examined[i] += p.examined[i]
		}
	}
	return t
}

func (r *inprocRun) outcome() (attempted, failed int, problems []string) {
	for _, p := range r.passes {
		attempted += p.attempted
		failed += p.failed
		problems = append(problems, p.problems...)
	}
	return
}

// endToEnd computes the end-to-end metrics from the untraced passes:
// time and CPU from the quiet passes, allocations over every pass,
// set-up time as the median of the quickest quarter of set-ups, and the
// median heap.
func (r *inprocRun) endToEnd() map[string]float64 {
	all := r.group(false)
	q := totals(quiet(all))
	txns := float64(len(q.svc))
	var setups, heaps []float64
	for _, p := range all {
		setups = append(setups, p.setup)
		heaps = append(heaps, p.heapPerConn)
	}
	slices.Sort(setups)
	slices.Sort(q.svc)
	return map[string]float64{
		"txn_per_s":           txns / (float64(q.wall) / 1e9),
		"txn_p50_us":          quantileNs(q.svc, 0.50) / 1e3,
		"txn_p99_us":          quantileNs(q.svc, 0.99) / 1e3,
		"cpu_us_per_txn":      float64(q.cpu) / 1e3 / txns,
		"allocs_per_txn":      float64(totals(all).mallocs) / float64(len(all)*r.rec.txns),
		"heap_bytes_per_conn": median(heaps),
		"setup_s":             median(setups[:(len(setups)+3)/4]),
	}
}

// perLayer computes the per-layer metrics of a traced run and the text
// lines that explain them (the cost ledger).
func (r *inprocRun) perLayer(lc layerCosts) (map[string]float64, []string) {
	tr := r.tr
	ug, tg := r.group(false), r.group(true)
	u, t := totals(ug), totals(tg)
	nt := len(tg)
	c := lc.clock
	frames := float64(t.frames)
	txns := float64(nt * r.rec.txns)
	corrected := func(s spanName) float64 {
		if tr.n[s] == 0 {
			return 0
		}
		return max(tr.mean(s)-c, 0)
	}
	// A child span's raw duration is its body plus one clock read; its
	// parent additionally pays the child's second read.
	var children float64
	for _, s := range []spanName{spLookup, spInsert, spRemove, spNotify, spApp, spTap} {
		children += float64(tr.sum[s]) + float64(tr.n[s])*c
	}
	egressPerFrame := float64(t.egress) / frames
	isolated := lc.parse + lc.extract + lc.steer + lc.ring + lc.build*egressPerFrame
	deliverSelf := (float64(tr.sum[spDeliver]) - float64(tr.n[spDeliver])*c - children) / frames
	engineSelf := deliverSelf - isolated

	perFrame := func(s spanName) float64 { return (float64(tr.sum[s]) - float64(tr.n[s])*c) / frames }
	ledger := []struct {
		name string
		ns   float64
	}{
		{"wire.parse", lc.parse},
		{"wire.extract", lc.extract},
		{"shard.steer", lc.steer},
		{"shard.ring", lc.ring},
		{"core.lookup", perFrame(spLookup)},
		{"core.notify_send", perFrame(spNotify)},
		{"core.insert", perFrame(spInsert)},
		{"core.remove", perFrame(spRemove)},
		{"server.app", perFrame(spApp)},
		{"wire.build", lc.build * egressPerFrame},
		{"engine.egress_tap", perFrame(spTap)},
		{"engine.self", engineSelf},
		{"shard.tick", perFrame(spTick)},
		{"shard.release", perFrame(spRelease)},
	}
	untraced := float64(u.wall) / float64(u.frames) // ns per frame, end to end
	var sum float64
	for _, l := range ledger {
		sum += l.ns
	}
	lines := []string{fmt.Sprintf("cost ledger, ns per inbound frame (untraced total %.1f ns; clock read %.1f ns subtracted per span):", untraced, c)}
	for _, l := range ledger {
		lines = append(lines, fmt.Sprintf("  %-18s %8.1f ns  %5.1f%%", l.name, l.ns, 100*l.ns/untraced))
	}
	lines = append(lines, fmt.Sprintf("  %-18s %8.1f ns  %5.1f%%", "unattributed", untraced-sum, 100*(untraced-sum)/untraced))

	var totalLookups, totalExamined uint64
	for i := range t.lookups {
		totalLookups += t.lookups[i]
		totalExamined += t.examined[i]
	}
	var maxSteer, sumSteer float64
	for _, s := range t.steered {
		sumSteer += float64(s)
		if float64(s) > maxSteer {
			maxSteer = float64(s)
		}
	}
	var svcU, svcT int64
	for _, d := range u.svc {
		svcU += d
	}
	for _, d := range t.svc {
		svcT += d
	}
	m := map[string]float64{
		"core.lookup_ns":               corrected(spLookup),
		"core.examined_per_lookup":     ratio(float64(totalExamined), float64(totalLookups)),
		"core.cache_hit_rate":          ratio(float64(tr.hits), float64(tr.lookups)),
		"core.max_examined":            float64(tr.maxExamined),
		"core.notify_send_ns":          corrected(spNotify),
		"core.insert_ns":               corrected(spInsert),
		"core.remove_ns":               corrected(spRemove),
		"shard.release_ns":             corrected(spRelease),
		"shard.tick_ns":                corrected(spTick),
		"timer.fired_per_txn":          float64(t.fired) / txns,
		"wire.parse_ns":                lc.parse,
		"wire.parse_allocs":            lc.parseAllocs,
		"wire.extract_ns":              lc.extract,
		"wire.build_ns":                lc.build,
		"shard.steer_ns":               lc.steer,
		"shard.ring_ns":                lc.ring,
		"shard.deliver_ns":             corrected(spDeliver),
		"server.app_ns":                corrected(spApp),
		"engine.egress_frames_per_txn": float64(t.egress) / txns,
		"engine.self_ns":               engineSelf,
		"shard.steer_imbalance":        ratio(maxSteer, sumSteer/float64(len(t.steered))),
		"shard.shed_frames":            float64(u.shed + t.shed),
		"shard.inbox_full":             float64(u.inboxFull + t.inboxFull),
		"unattributed_ns":              untraced - sum,
		"trace.overhead_frac":          ratio(float64(svcT)/float64(len(t.svc)), float64(svcU)/float64(len(u.svc))) - 1,
		"trace.clock_ns":               c,
	}
	if r.bare != nil {
		m["core.examined_vs_model"] = r.bare.modelRatio
		lines = append(lines, r.bare.lines...)
	}
	return m, lines
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// quantileNs returns the q-quantile of sorted samples (nearest rank).
func quantileNs(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return float64(sorted[i])
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
