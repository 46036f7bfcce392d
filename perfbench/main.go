// Command perfbench is the repository benchmark: the cost of a served
// TPC/A transaction and of an inbound frame along the real frame path,
// end to end and layer by layer. See README.md for the workloads and
// metrics; run it through run.sh from the repository root:
//
//	bash perfbench/run.sh --workload tpca-paper --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end ones; with --trace 1 the per-layer ones.
// Any failed check makes the command exit 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// metricSpec names one reported metric; BENCHMARK.json lists the same.
type metricSpec struct {
	name, unit string
}

var endToEnd = []metricSpec{
	{"txn_per_s", "1/s"},
	{"txn_p50_us", "us"},
	{"txn_p99_us", "us"},
	{"cpu_us_per_txn", "us"},
	{"allocs_per_txn", "count"},
	{"heap_bytes_per_conn", "B"},
	{"setup_s", "s"},
}

var perLayer = []metricSpec{
	{"core.lookup_ns", "ns"},
	{"core.examined_per_lookup", "count"},
	{"core.cache_hit_rate", "ratio"},
	{"core.max_examined", "count"},
	{"core.notify_send_ns", "ns"},
	{"core.examined_vs_model", "ratio"},
	{"core.insert_ns", "ns"},
	{"core.remove_ns", "ns"},
	{"shard.release_ns", "ns"},
	{"shard.tick_ns", "ns"},
	{"timer.fired_per_txn", "count"},
	{"wire.parse_ns", "ns"},
	{"wire.parse_allocs", "count"},
	{"wire.extract_ns", "ns"},
	{"wire.build_ns", "ns"},
	{"shard.steer_ns", "ns"},
	{"shard.ring_ns", "ns"},
	{"shard.deliver_ns", "ns"},
	{"server.app_ns", "ns"},
	{"engine.egress_frames_per_txn", "count"},
	{"engine.self_ns", "ns"},
	{"shard.steer_imbalance", "ratio"},
	{"shard.shed_frames", "count"},
	{"shard.inbox_full", "count"},
	{"server.dial_us", "us"},
	{"server.frames_per_txn", "count"},
	{"server.cpu_util", "ratio"},
	{"loadgen.cpu_us_per_txn", "us"},
	{"unattributed_ns", "ns"},
	{"trace.overhead_frac", "ratio"},
	{"trace.clock_ns", "ns"},
	{"error_rate", "ratio"},
}

// sizes are the workload dimensions; the self-test shrinks them.
type sizes struct {
	tpca  tpcaParams
	churn churnParams
	live  liveParams
}

var fullSizes = sizes{
	// N = 24000 over 4 shards: about 6000 PCBs per shard on 19 chains,
	// three times the paper's N = 2000, H = 19 point, so that lookup is
	// the largest layer of the frame path (see README.md).
	tpca: tpcaParams{users: 24000, txns: 50_000, shards: 4, chains: 19},
	// About 100 concurrent clients, short bursts: chains stay short, so
	// lookup is nearly free and the lifecycle layers carry the cost.
	churn: churnParams{clients: 100, txns: 50_000, minBurst: 1, maxBurst: 8, shards: 4, chains: 19},
	live: liveParams{
		subLoad: 2500 * time.Millisecond, warmup: 8000, reopenEvery: 1000,
		// demuxd's defaults: sequent, 512 chains, 4 shards; one connection.
		shape: churnParams{clients: liveConns, txns: 40_000, minBurst: 1000, maxBurst: 1000, shards: 4, chains: 512},
	},
}

var workloads = []string{"tpca-paper", "churn", "live-loopback"}

// config is one invocation.
type config struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	demuxd   string // path to the demuxd binary (live-loopback)
	spansDir string
	sizes    sizes
}

// result is one run's outcome.
type result struct {
	attempted, failed int
	problems          []string
	metrics           map[string]float64
	lines             []string // human-readable context, printed before the JSON
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var seconds, trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload: tpca-paper, churn or live-loopback")
	fs.Uint64Var(&cfg.seed, "seed", 1, "input seed")
	fs.IntVar(&seconds, "seconds", 10, "measurement time")
	fs.IntVar(&trace, "trace", 0, "1 prints the per-layer metrics from a traced run")
	fs.StringVar(&cfg.demuxd, "demuxd", "", "demuxd binary (live-loopback)")
	fs.StringVar(&cfg.spansDir, "spans-dir", filepath.Join(".bench_build", "spans"), "where traced runs write their spans")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.seconds = time.Duration(seconds) * time.Second
	cfg.trace = trace == 1
	cfg.sizes = fullSizes
	// One thread of load (see README.md). On the host's two CPUs a second
	// one, the collector's worker above all, competes with the load and,
	// on live-loopback, with demuxd: pass and round-trip times then spread
	// two to three times wider from run to run.
	runtime.GOMAXPROCS(1)
	res, err := runWorkload(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := report(stdout, cfg, res); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if res.failed > 0 || len(res.problems) > 0 {
		for _, p := range res.problems {
			fmt.Fprintln(stderr, "perfbench: check failed:", p)
		}
		return 1
	}
	return 0
}

// runWorkload records, measures and checks one workload.
func runWorkload(cfg config) (*result, error) {
	switch cfg.workload {
	case "tpca-paper":
		rec, err := recordTPCA(cfg.seed, cfg.sizes.tpca)
		if err != nil {
			return nil, fmt.Errorf("recording tpca-paper: %w", err)
		}
		res, _, err := runInProcess(cfg, rec, true)
		return res, err
	case "churn":
		rec, err := recordChurn(cfg.seed, cfg.sizes.churn)
		if err != nil {
			return nil, fmt.Errorf("recording churn: %w", err)
		}
		res, _, err := runInProcess(cfg, rec, false)
		return res, err
	case "live-loopback":
		return runLiveWorkload(cfg)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", cfg.workload, workloads)
}

// runInProcess measures a recording; figureOfMerit adds the bare-table
// cross-check and the analytic comparison.
func runInProcess(cfg config, rec *recording, figureOfMerit bool) (*result, *inprocRun, error) {
	set, err := newSet(rec.cfg, nil)
	if err != nil {
		return nil, nil, err
	}
	steer := set.Steering()
	var bare *bareReplay
	if figureOfMerit {
		if bare, err = replayBare(rec, steer); err != nil {
			return nil, nil, fmt.Errorf("bare replay: %w", err)
		}
	}
	run, err := replayFor(rec, cfg.seconds, cfg.trace, bare)
	if err != nil {
		return nil, nil, err
	}
	res := &result{}
	res.attempted, res.failed, res.problems = run.outcome()
	passes := len(run.group(false))
	res.lines = append(res.lines,
		fmt.Sprintf("recording: %d connections established in set-up, %d timed calls, %d transactions per pass; %d untraced passes",
			rec.conns, len(rec.timed), rec.txns, passes),
		fmt.Sprintf("StackSet: sequent, %d chains, %d shards; every pass on a fresh set, on one CPU (taking turns), egress checked byte for byte", rec.cfg.chains, rec.cfg.shards),
		fmt.Sprintf("end-to-end times from the quietest tenth of the passes: %d latency samples (service time = summed program calls per transaction)",
			len(totals(quiet(run.group(false))).svc)),
	)
	var perTxn []float64
	for _, p := range run.group(false) {
		perTxn = append(perTxn, float64(p.wall)/float64(rec.txns))
	}
	res.lines = append(res.lines, fmt.Sprintf("untraced passes, ns per transaction: %.0f", perTxn))
	if !cfg.trace {
		res.metrics = run.endToEnd()
		return res, run, nil
	}
	lc, err := measureLayers(rec, steer)
	if err != nil {
		return nil, nil, err
	}
	m, lines := run.perLayer(lc)
	res.metrics = m
	res.lines = append(res.lines, lines...)
	return res, run, run.tr.write(filepath.Join(cfg.spansDir, fmt.Sprintf("%s-seed%d.tsv", cfg.workload, cfg.seed)))
}

// runLiveWorkload measures demuxd over loopback. The traced run also
// replays the live frame shape in process (one connection, demuxd's
// default table) to split the round trip into engine layers.
func runLiveWorkload(cfg config) (*result, error) {
	if cfg.demuxd == "" {
		return nil, fmt.Errorf("live-loopback needs --demuxd")
	}
	p := cfg.sizes.live
	liveTime := cfg.seconds
	if cfg.trace {
		liveTime = cfg.seconds / 2
	}
	lr, err := runLive(cfg.demuxd, cfg.seed, liveTime, p)
	if err != nil {
		return nil, err
	}
	res := &result{attempted: lr.attempted, failed: lr.failed, problems: lr.problems, lines: lr.lines}
	if !cfg.trace {
		res.metrics = map[string]float64{}
		for _, s := range endToEnd {
			res.metrics[s.name] = lr.metrics[s.name]
		}
		return res, nil
	}
	rec, err := recordChurn(cfg.seed, p.shape)
	if err != nil {
		return nil, fmt.Errorf("recording the live frame shape: %w", err)
	}
	sub := cfg
	sub.seconds = cfg.seconds / 2
	inner, run, err := runInProcess(sub, rec, false)
	if err != nil {
		return nil, err
	}
	res.attempted += inner.attempted
	res.failed += inner.failed
	res.problems = append(res.problems, inner.problems...)
	res.metrics = inner.metrics
	for _, n := range []string{"server.dial_us", "server.frames_per_txn", "server.cpu_util", "loadgen.cpu_us_per_txn"} {
		res.metrics[n] = lr.metrics[n]
	}
	// The in-process replay gives the engine's untraced cost per frame;
	// the rest of each frame's share of the round trip is outside it.
	u := totals(run.group(false))
	engineFrame := float64(u.wall) / float64(u.frames)
	engineTxn := engineFrame * lr.framesTxn
	res.metrics["unattributed_ns"] = lr.rttNs/lr.framesTxn - engineFrame
	res.lines = append(res.lines, fmt.Sprintf("in-process replay of the live frame shape (%d connection(s), sequent/512, 4 shards):", liveConns))
	res.lines = append(res.lines, inner.lines...)
	res.lines = append(res.lines, fmt.Sprintf("round trip p50 %.1f us over %.2f frames per transaction: engine path %.2f us = %.1f%%, outside the engine %.1f%%",
		lr.rttNs/1e3, lr.framesTxn, engineTxn/1e3, 100*engineTxn/lr.rttNs, 100-100*engineTxn/lr.rttNs))
	return res, nil
}

// report prints the human-readable context and the JSON result line.
func report(w io.Writer, cfg config, res *result) error {
	specs := endToEnd
	if cfg.trace {
		specs = perLayer
	}
	fmt.Fprintf(w, "perfbench %s seed=%d seconds=%.0f trace=%v\n", cfg.workload, cfg.seed, cfg.seconds.Seconds(), cfg.trace)
	fmt.Fprintf(w, "host: numCPU=%d GOMAXPROCS=%d go=%s os=%s/%s\n", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
	fmt.Fprintln(w, "frag: unmeasured, no workload fragments")
	for _, l := range res.lines {
		fmt.Fprintln(w, l)
	}
	errRate := ratio(float64(res.failed), float64(res.attempted))
	if cfg.trace {
		res.metrics["error_rate"] = errRate
	}
	fmt.Fprintf(w, "operations: %d attempted, %d failed, error_rate %.6f\n", res.attempted, res.failed, errRate)

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := make(map[string]value, len(specs))
	for _, s := range specs {
		v, ok := res.metrics[s.name]
		note := ""
		if !ok {
			note = "  (not measured on this workload)"
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			res.problems = append(res.problems, fmt.Sprintf("metric %s is %v", s.name, v))
			v = 0
		}
		fmt.Fprintf(w, "  %-30s %16.4f %s%s\n", s.name, v, s.unit, note)
		out[s.name] = value{v, s.unit}
	}
	known := 0
	for _, s := range specs {
		if _, ok := res.metrics[s.name]; ok {
			known++
		}
	}
	if known != len(res.metrics) {
		return fmt.Errorf("%d measured metrics are not in the reported list", len(res.metrics)-known)
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.failed == 0 && len(res.problems) == 0, max(res.attempted, 1), res.failed, out})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(line))
	return err
}
