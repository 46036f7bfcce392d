package main

import (
	"bufio"
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"

	"tcpdemux/internal/rng"
	"tcpdemux/internal/server"
)

// The live-loopback workload runs a fresh demuxd (default flags, on free
// loopback ports) per sub-run and drives it with one closed-loop
// connection at a time, reopened every reopenEvery transactions. Each
// connection is one timing window: its wall time, its transactions'
// round trips and demuxd's CPU clock across it. Frame counters come from
// /metrics, memory from /proc. All traffic crosses the loopback
// interface, not a real link.

// liveConns is the number of concurrent client connections. One
// closed loop keeps demuxd and the generator below the host's two CPUs;
// with two, the pair saturates them and the tail becomes queueing behind
// whatever else the host runs (see README.md).
const liveConns = 1

// liveParams shapes the live workload.
type liveParams struct {
	subLoad     time.Duration // load time per sub-run (one fresh demuxd each)
	warmup      int           // warm-up transactions per set-up connection
	reopenEvery int           // transactions per connection (one timing window)
	shape       churnParams   // the in-process replay of the live frame shape
}

// demuxd is one running server process.
type demuxd struct {
	cmd     *exec.Cmd
	addr    string // TPC/A listener
	metrics string // /metrics listener
	lines   chan string
	ready   time.Time
}

// signalGrace is how long after readiness stop waits before SIGTERM:
// demuxd prints its listeners before it installs its signal handler, so
// a SIGTERM sent at once can kill it before it drains.
const signalGrace = 100 * time.Millisecond

// startDemuxd execs demuxd and waits until both listeners are up.
func startDemuxd(path string) (*demuxd, error) {
	cmd := exec.Command(path, "-addr", "127.0.0.1:0", "-metrics", "127.0.0.1:0")
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("exec demuxd: %w", err)
	}
	d := &demuxd{cmd: cmd, lines: make(chan string, 64)}
	go func() {
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			d.lines <- sc.Text()
		}
		close(d.lines)
	}()
	timeout := time.After(10 * time.Second)
	for d.addr == "" || d.metrics == "" {
		select {
		case l, ok := <-d.lines:
			if !ok {
				d.kill()
				return nil, errors.New("demuxd exited before listening")
			}
			if _, rest, ok := strings.Cut(l, "serving TPC/A on "); ok {
				d.addr, _, _ = strings.Cut(rest, " ")
			}
			if _, rest, ok := strings.Cut(l, "metrics on http://"); ok {
				d.metrics = strings.TrimSuffix(rest, "/metrics")
			}
		case <-timeout:
			d.kill()
			return nil, errors.New("demuxd did not report its listeners within 10s")
		}
	}
	d.ready = time.Now()
	return d, nil
}

func (d *demuxd) kill() {
	_ = d.cmd.Process.Kill() // the process may already have exited
	for range d.lines {
	}
	_ = d.cmd.Wait() // exit status is irrelevant once killed
}

// drainLedger is demuxd's connection ledger, printed as it exits.
type drainLedger struct {
	accepted, served, shed, drained, txns uint64
}

// parseDrainLine reads the ledger from demuxd's final output line.
func parseDrainLine(l string) (drainLedger, bool) {
	var g drainLedger
	_, rest, ok := strings.Cut(l, "accepted=")
	if !ok {
		return g, false
	}
	n, _ := fmt.Sscanf("accepted="+rest, "accepted=%d served=%d shed=%d drained=%d (txns=%d)",
		&g.accepted, &g.served, &g.shed, &g.drained, &g.txns)
	return g, n == 5
}

// checkDrain is the shutdown correctness check: a clean exit and a
// balanced ledger with nothing shed.
func checkDrain(g drainLedger, exitErr error) error {
	switch {
	case exitErr != nil:
		return fmt.Errorf("demuxd exit: %v", exitErr)
	case g.accepted != g.served+g.shed+g.drained:
		return fmt.Errorf("demuxd ledger unbalanced: accepted=%d served=%d shed=%d drained=%d",
			g.accepted, g.served, g.shed, g.drained)
	case g.shed != 0:
		return fmt.Errorf("demuxd shed %d connections", g.shed)
	}
	return nil
}

// stop sends SIGTERM, waits for the process to exit, and checks its
// drain ledger.
func (d *demuxd) stop() (drainLedger, error) {
	time.Sleep(time.Until(d.ready.Add(signalGrace)))
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.kill()
		return drainLedger{}, err
	}
	var g drainLedger
	found := false
	timeout := time.After(30 * time.Second)
	for open := true; open; {
		select {
		case l, ok := <-d.lines:
			if !ok {
				open = false
				break
			}
			if lg, ok := parseDrainLine(l); ok {
				g, found = lg, true
			}
		case <-timeout:
			d.kill()
			return g, errors.New("demuxd did not exit within 30s of SIGTERM")
		}
	}
	err := d.cmd.Wait()
	if !found {
		return g, fmt.Errorf("demuxd printed no drain ledger (exit: %v)", err)
	}
	return g, checkDrain(g, err)
}

// procCPU returns a process's CPU time (all its threads, user and
// system) in ns, read from its process CPU-time clock.
func procCPU(pid int) (int64, error) {
	clock := uintptr((^pid)<<3 | 2) // CPUCLOCK_SCHED of the whole process
	var ts syscall.Timespec
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clock, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		return 0, fmt.Errorf("process %d CPU clock: %w", pid, e)
	}
	return ts.Nano(), nil
}

// procRssAnon returns a process's resident anonymous memory in bytes.
func procRssAnon(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, l := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(l, "RssAnon:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			return kb * 1024, err
		}
	}
	return 0, errors.New("no RssAnon in /proc status")
}

// scrape sums the named counters across labels from demuxd's /metrics.
func scrape(addr string, names ...string) (map[string]float64, error) {
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64, len(names))
	for _, l := range strings.Split(string(body), "\n") {
		if l == "" || l[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(l, ' ')
		if sp < 0 {
			continue
		}
		name := l[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		for _, n := range names {
			if name == n {
				v, err := strconv.ParseFloat(l[sp+1:], 64)
				if err != nil {
					return nil, fmt.Errorf("metric %s: %w", n, err)
				}
				out[n] += v
			}
		}
	}
	return out, nil
}

var liveCounters = []string{
	"server_frames_synthesized_total", "server_txns_total",
	"server_shed_total", "server_bad_txns_total", "engine_dropped_total", "shard_shed_total",
}

// liveClient is the benchmark's closed-loop TPC/A client for one demuxd: a
// private id, a seeded request stream and a server.Ledger oracle that
// predicts every response byte for byte.
type liveClient struct {
	oracle    *server.Ledger
	src       *rng.Source
	id        uint32
	batch     batch
	lat       []int64 // timed round trips, ns
	attempted int
	failed    int
	firstErr  string
}

// batch is the next requests and the oracle's responses to them, built
// before they are sent so that the timed loop allocates nothing and the
// client's collector does not run inside a window.
type batch struct {
	req, want       []byte
	reqEnd, wantEnd []int
}

// window is one timed connection: its dial, transactions and close.
type window struct {
	wall, cpu int64   // ns; cpu is demuxd's since the previous window ended
	lat       []int64 // its transactions' round trips, ns
}

func (w window) rate() float64 { return float64(len(w.lat)) / float64(w.wall) }

// fill builds the next n requests and their expected responses.
func (cl *liveClient) fill(n int) {
	b := &cl.batch
	b.req, b.want, b.reqEnd, b.wantEnd = b.req[:0], b.want[:0], b.reqEnd[:0], b.wantEnd[:0]
	for range n {
		req := server.Req{Branch: cl.id, Teller: cl.id, Account: cl.id*8 + uint32(cl.src.Intn(8)), Delta: int64(cl.src.Intn(1999) - 999)}
		b.want = append(b.want, cl.oracle.Expected(req)...)
		b.req = append(b.req, server.FormatRequest(req.Branch, req.Teller, req.Account, req.Delta)...)
		b.reqEnd, b.wantEnd = append(b.reqEnd, len(b.req)), append(b.wantEnd, len(b.want))
	}
}

// send runs the filled batch on c, verifying each response; with timed
// set it records each round trip. It returns false at the first failure.
func (cl *liveClient) send(c net.Conn, rd *bufio.Reader, timed bool) bool {
	_ = c.SetDeadline(time.Now().Add(10 * time.Second)) // a failed deadline shows as an IO error below
	b := &cl.batch
	r0, w0 := 0, 0
	for i, r1 := range b.reqEnd {
		w1 := b.wantEnd[i]
		cl.attempted++
		t0 := time.Now()
		if _, err := c.Write(b.req[r0:r1]); err != nil {
			return cl.fail(err.Error())
		}
		got, err := rd.ReadSlice('\n')
		d := time.Since(t0)
		if err != nil {
			return cl.fail(err.Error())
		}
		if !bytes.Equal(got, b.want[w0:w1]) {
			return cl.fail(fmt.Sprintf("got %q want %q", got, b.want[w0:w1]))
		}
		if timed {
			cl.lat = append(cl.lat, d.Nanoseconds())
		}
		r0, w0 = r1, w1
	}
	return true
}

func (cl *liveClient) fail(msg string) bool {
	cl.failed++
	if cl.firstErr == "" {
		cl.firstErr = msg
	}
	return false
}

// liveRun is the outcome of the live part of the workload.
type liveRun struct {
	metrics   map[string]float64
	attempted int
	failed    int
	problems  []string
	rttNs     float64 // client round-trip median
	framesTxn float64
	lines     []string
}

func (lr *liveRun) fail(n int, format string, args ...any) {
	lr.failed += n
	lr.problems = append(lr.problems, fmt.Sprintf(format, args...))
}

// subRun is one fresh demuxd process driven for part of the run.
type subRun struct {
	setup   float64   // seconds: exec to every connection dialed
	dials   []float64 // us
	rss     float64   // demuxd RssAnon after warm-up, bytes
	windows []window
	wall    float64 // ns in the windows
	cpu     float64 // demuxd CPU over the load, ns
	genCPU  float64 // this process's CPU over the load, ns
	mallocs uint64  // this process's allocations over the load
	frames  float64 // frames demuxd synthesized over the load
	timed   int     // transactions in the windows
	cpuID   int     // the CPU it ran on
	drain   drainLedger
}

// runSub starts a fresh demuxd, dials and warms up liveConns
// connections, closes them, then drives the server for about p.subLoad
// with one closed-loop connection at a time, a new one every
// p.reopenEvery transactions, stops it and checks its ledger. Checks
// that fail are recorded on lr; after a failed one it returns nil.
func runSub(lr *liveRun, demuxdPath string, seed uint64, p liveParams) (*subRun, error) {
	sr := &subRun{}
	t0 := time.Now()
	srv, err := startDemuxd(demuxdPath)
	if err != nil {
		return nil, err
	}
	defer func() {
		if srv != nil {
			srv.kill()
		}
	}()
	var conns []net.Conn
	defer func() {
		for _, c := range conns {
			c.Close() // closed once already on the normal path; a second Close is harmless
		}
	}()
	for k := 0; k < liveConns; k++ {
		lr.attempted++
		d0 := time.Now()
		c, err := net.DialTimeout("tcp", srv.addr, 5*time.Second)
		if err != nil {
			lr.fail(1, "dial: %v", err)
			return nil, nil
		}
		sr.dials = append(sr.dials, float64(time.Since(d0).Nanoseconds())/1e3)
		conns = append(conns, c)
	}
	sr.setup = time.Since(t0).Seconds()

	cl := &liveClient{
		oracle: server.NewLedger(), src: rng.New(seed*0x9e37 + 0x77), id: 1_000_000,
		lat: make([]int64, 0, 1<<16),
	}
	defer func() {
		lr.attempted += cl.attempted
		if cl.failed > 0 {
			lr.fail(cl.failed, "client: %s", cl.firstErr)
		}
	}()
	// Warm up over the set-up connections: a fixed amount of work, so
	// that demuxd's memory afterwards does not depend on the host's speed.
	for _, c := range conns {
		if cl.fill(p.warmup); !cl.send(c, bufio.NewReader(c), false) {
			return nil, nil
		}
	}
	pid := srv.cmd.Process.Pid
	if sr.rss, err = procRssAnon(pid); err != nil {
		return nil, err
	}
	for _, c := range conns {
		c.Close()
	}

	m0, err := scrape(srv.metrics, liveCounters...)
	if err != nil {
		return nil, err
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	self0, mallocs0 := cpuNow(), ms.Mallocs
	// demuxd's CPU is read between windows, so its work on a close is
	// charged to the window that closed the connection or the next one.
	cpuPrev, err := procCPU(pid)
	if err != nil {
		return nil, err
	}
	cpuStart, loadStart := cpuPrev, time.Now()
	for time.Since(loadStart) < p.subLoad {
		cl.fill(p.reopenEvery)
		first := len(cl.lat)
		begin := time.Now()
		c, err := net.DialTimeout("tcp", srv.addr, 5*time.Second)
		if err != nil {
			cl.attempted++
			cl.fail("dial: " + err.Error())
			return nil, nil
		}
		ok := cl.send(c, bufio.NewReader(c), true)
		c.Close()
		if !ok {
			return nil, nil
		}
		wall := time.Since(begin).Nanoseconds()
		cpu, err := procCPU(pid)
		if err != nil {
			return nil, err
		}
		sr.windows = append(sr.windows, window{wall: wall, cpu: cpu - cpuPrev, lat: cl.lat[first:len(cl.lat):len(cl.lat)]})
		sr.wall += float64(wall)
		cpuPrev = cpu
	}
	sr.cpu = float64(cpuPrev - cpuStart)
	sr.genCPU = float64(cpuNow() - self0)
	runtime.ReadMemStats(&ms)
	sr.mallocs = ms.Mallocs - mallocs0
	sr.timed = len(cl.lat)
	m1, err := scrape(srv.metrics, liveCounters...)
	if err != nil {
		return nil, err
	}
	sr.drain, err = srv.stop()
	srv = nil
	if err != nil {
		lr.fail(1, "%v", err)
	}

	for _, n := range []string{"server_shed_total", "server_bad_txns_total", "engine_dropped_total", "shard_shed_total"} {
		if v := m1[n] - m0[n]; v > 0 {
			lr.fail(int(v), "%s grew by %.0f", n, v)
		}
	}
	if served := m1["server_txns_total"] - m0["server_txns_total"]; served != float64(sr.timed) {
		lr.fail(1, "demuxd served %.0f transactions, the client verified %d", served, sr.timed)
	}
	sr.frames = m1["server_frames_synthesized_total"] - m0["server_frames_synthesized_total"]
	return sr, nil
}

// runLive measures the live-loopback workload: one sub-run per fresh
// demuxd, p.subLoad of load each, until about seconds have passed.
// Times come from the fastest tenth of all the sub-runs' windows (by
// throughput), for the same reason the in-process passes use their
// quiet tenth: the shared host's speed drifts within and between runs.
// A run holds several hundred windows, so a tenth is still tens of
// thousands of transactions.
func runLive(demuxdPath string, seed uint64, seconds time.Duration, p liveParams) (*liveRun, error) {
	lr := &liveRun{metrics: map[string]float64{}}
	var subs []*subRun
	deadline := time.Now().Add(seconds)
	for i := 0; i < 2 || time.Now().Add(p.subLoad/2).Before(deadline); i++ {
		// One CPU per sub-run for the client and its demuxd: each round
		// trip then hands off between threads on the same CPU, never
		// waiting for another CPU to wake. demuxd's Go runtime sizes
		// itself to that one CPU (GOMAXPROCS=1); its flags stay at their
		// defaults. Sub-runs take turns over the CPUs, so a CPU the host
		// slows for a while does not slow the whole run.
		cpu, restore, err := pinToOneCPU(i)
		if err != nil {
			return nil, err
		}
		sr, err := runSub(lr, demuxdPath, seed+uint64(i), p)
		restore()
		if err != nil {
			return nil, err
		}
		if sr != nil {
			sr.cpuID = cpu
		}
		if sr != nil {
			subs = append(subs, sr)
		}
	}
	if len(subs) == 0 {
		return lr, nil // every sub-run failed before loading; failures counted
	}
	var setups, dials, rss []float64
	var windows []window
	var txns, frames, mallocs, cpu, gen, wall float64
	for _, sr := range subs {
		setups = append(setups, sr.setup)
		dials = append(dials, sr.dials...)
		rss = append(rss, sr.rss/liveConns)
		windows = append(windows, sr.windows...)
		txns += float64(sr.timed)
		frames += sr.frames
		mallocs += float64(sr.mallocs)
		cpu += sr.cpu
		gen += sr.genCPU
		wall += sr.wall
	}
	slices.Sort(setups)
	slices.SortFunc(windows, func(a, b window) int { return cmp.Compare(b.rate(), a.rate()) })
	q := windows[:(len(windows)+9)/10]
	var qWall, qCPU float64
	var lat []int64
	for _, w := range q {
		qWall += float64(w.wall)
		qCPU += float64(w.cpu)
		lat = append(lat, w.lat...)
	}
	slices.Sort(lat)
	qTxns := float64(len(lat))
	lr.rttNs = quantileNs(lat, 0.50)
	lr.framesTxn = ratio(frames, txns)
	lr.metrics = map[string]float64{
		"txn_per_s":           qTxns / (qWall / 1e9),
		"txn_p50_us":          lr.rttNs / 1e3,
		"txn_p99_us":          quantileNs(lat, 0.99) / 1e3,
		"cpu_us_per_txn":      ratio(qCPU/1e3, qTxns),
		"allocs_per_txn":      ratio(mallocs, txns),
		"heap_bytes_per_conn": median(rss),
		"setup_s":             median(setups[:(len(setups)+3)/4]),

		"server.dial_us":         median(dials),
		"server.frames_per_txn":  lr.framesTxn,
		"server.cpu_util":        cpu / wall,
		"loadgen.cpu_us_per_txn": ratio(gen/1e3, txns),
	}
	lr.lines = append(lr.lines,
		"traffic crossed the loopback interface, not a real link; each sub-run's client and demuxd shared one CPU",
		fmt.Sprintf("%d sub-runs, each on a fresh demuxd (default flags, free ports): exec, dial %d, %d warm-up transactions each, then one closed-loop connection at a time, reopened every %d transactions",
			len(subs), liveConns, p.warmup, p.reopenEvery),
		fmt.Sprintf("latency, throughput and demuxd CPU from the fastest %d of %d windows (one connection each): %d transactions (round trips in ns)", len(q), len(windows), len(lat)),
		"allocs_per_txn counts the load generator's allocations (demuxd exports no allocation counter); heap_bytes_per_conn is demuxd's RssAnon after warm-up over its connections",
	)
	for i, sr := range subs {
		var r []float64
		for _, w := range sr.windows {
			r = append(r, w.rate()*1e9)
		}
		slices.Sort(r)
		lr.lines = append(lr.lines, fmt.Sprintf("  sub-run %d on CPU %d: %d windows, txn/s median %.0f best %.0f; demuxd at SIGTERM accepted=%d served=%d shed=%d drained=%d txns=%d",
			i, sr.cpuID, len(r), median(r), r[len(r)-1], sr.drain.accepted, sr.drain.served, sr.drain.shed, sr.drain.drained, sr.drain.txns))
	}
	return lr, nil
}
