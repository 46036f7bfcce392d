// Command benchjson measures the demultiplexing disciplines on the
// read-heavy TPC/A mix and writes the results as JSON. Every lookup
// table is measured the way the sharded engine runs it — single-writer,
// through shard.MeasureSharded — and three workloads share the harness:
//
//   - cache (BENCH_cache.json): the chained Sequent baseline against the
//     cache-conscious open-addressing tables (flat-hopscotch,
//     flat-cuckoo) on one shard, per packet and batched, sweeping the
//     batch path's prefetch pipeline depth k, with internal/cachesim
//     stall estimates embedded beside the measured numbers.
//   - shard (BENCH_shard.json): the multi-queue engine — the same
//     TPC/A population RSS-steered across N private tables, sweeping
//     the shard count (1, 2, 4, max). With the chain count held fixed,
//     each shard's table holds ~1/N of the PCBs, so the sweep exposes
//     the paper's C(N) partitioning effect directly.
//   - failover (BENCH_failover.json): shard failure domains under
//     virtual time — crash and stall one shard of four mid-exchange and
//     measure watchdog detection latency, live-drain recovery, and
//     windowed goodput in deterministic virtual-time ticks (see
//     failover.go; nsPerOp is ticks, not wall nanoseconds).
//
// Methodology: every configuration is measured -rounds times with the
// rounds interleaved round-robin across configurations, and the summary
// takes each configuration's best round. Interleaving plus best-of-N
// makes the comparison robust against the slow drift and interference
// spikes of shared machines, which a single long pass per configuration
// would fold into whichever algorithm happened to run last.
//
// Usage:
//
//	benchjson [-workload cache|shard|failover] [-out FILE]
//	          [-rounds 5] [-gomaxprocs 4] [-ops 200000] [-n 1000]
//	          [-batch 64] [-chains 19] [-seed 7]
//
// benchjson is also its own regression gate: -compare old.json new.json
// [-tolerance 0.15] reads two reports of the same workload and exits
// nonzero if any configuration's best nsPerOp regressed beyond the
// tolerance or any of its deterministic fields (meanExamined,
// cacheHitRate, the examined quantiles) changed at all (see compare.go).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"tcpdemux/internal/core"
	"tcpdemux/internal/hashfn"
	"tcpdemux/internal/rng"
	"tcpdemux/internal/shard"
	"tcpdemux/internal/telemetry"
	"tcpdemux/internal/tpca"
)

// options collects the run parameters; a struct (rather than bare flag
// globals) so the test harness can drive tiny runs.
type options struct {
	Out        string
	Workload   string
	Rounds     int
	GoMaxProcs int
	Ops        int
	Users      int
	TxnsPer    int
	Batch      int
	Chains     int
	Seed       uint64
}

func defaults() options {
	return options{
		Workload:   "cache",
		Rounds:     5,
		GoMaxProcs: 4,
		Ops:        200_000,
		Users:      1000,
		TxnsPer:    4,
		Batch:      64,
		Chains:     19,
		Seed:       7,
	}
}

// round is one measured pass of one configuration.
type round struct {
	NsPerOp       float64 `json:"nsPerOp"`
	LookupsPerSec float64 `json:"lookupsPerSec"`
	MeanExamined  float64 `json:"meanExamined"`
	CacheHitRate  float64 `json:"cacheHitRate"`
	// Examined-per-packet percentiles from the round's telemetry
	// histogram (log2-bucket estimates).
	ExaminedP50 float64 `json:"examinedP50"`
	ExaminedP90 float64 `json:"examinedP90"`
	ExaminedP99 float64 `json:"examinedP99"`
}

// result is one configuration's rounds plus its best round.
type result struct {
	Discipline string  `json:"discipline"`
	Mode       string  `json:"mode"`
	Rounds     []round `json:"rounds"`
	Best       round   `json:"best"`
}

func main() {
	opt := defaults()
	flag.StringVar(&opt.Out, "out", opt.Out, "output JSON path (- for stdout, default per workload)")
	flag.IntVar(&opt.Rounds, "rounds", opt.Rounds, "interleaved measurement rounds per configuration")
	flag.IntVar(&opt.GoMaxProcs, "gomaxprocs", opt.GoMaxProcs, "GOMAXPROCS for the shard sweep (its largest shard count is max(8, gomaxprocs))")
	flag.IntVar(&opt.Ops, "ops", opt.Ops, "lookups per configuration per round")
	flag.IntVar(&opt.Users, "n", opt.Users, "TPC/A users (connection population)")
	flag.IntVar(&opt.Batch, "batch", opt.Batch, "train length for the batched mode")
	flag.IntVar(&opt.Chains, "chains", opt.Chains, "hash chains")
	flag.Uint64Var(&opt.Seed, "seed", opt.Seed, "workload seed")
	flag.StringVar(&opt.Workload, "workload", opt.Workload, "benchmark workload: cache, shard, or failover")
	compareMode := flag.Bool("compare", false, "compare two report files (old new) and gate on nsPerOp regressions and examined/hit-rate changes")
	tolerance := flag.Float64("tolerance", defaultTolerance, "allowed fractional nsPerOp regression in -compare mode")
	flag.Parse()

	if *compareMode {
		os.Exit(runCompare(flag.Args(), *tolerance, os.Stdout))
	}
	if opt.Out == "" {
		opt.Out = "BENCH_" + opt.Workload + ".json"
	}
	rep, note, err := run(opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	buf = append(buf, '\n')
	if opt.Out == "-" {
		os.Stdout.Write(buf)
	} else {
		if err := os.WriteFile(opt.Out, buf, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s (%s)\n", opt.Out, note)
	}
}

// run executes opt.Workload and returns its report with a one-line
// summary note.
func run(opt options) (any, string, error) {
	switch opt.Workload {
	case "cache":
		cr, err := runCache(opt)
		if err != nil {
			return nil, "", err
		}
		return cr, fmt.Sprintf("flat batch %.2fx over sequent per-packet (ns/op)",
			cr.Summary.FlatBatchOverSequentPerPacket), nil
	case "shard":
		sr, err := runShard(opt)
		if err != nil {
			return nil, "", err
		}
		return sr, fmt.Sprintf("4 shards %.2fx over single queue (examined %.1f -> %.1f)",
			sr.Summary.QuadOverSingle, sr.Summary.ExaminedSingle, sr.Summary.ExaminedQuad), nil
	case "failover":
		fr, err := runFailover(opt)
		if err != nil {
			return nil, "", err
		}
		note := ""
		if len(fr.Scenarios) > 0 {
			sc := fr.Scenarios[0]
			note = fmt.Sprintf("%s detected in %.0f ticks, recovered in %.0f",
				sc.Name, sc.DetectTicks, sc.RecoverTicks)
		}
		return fr, note, nil
	}
	return nil, "", fmt.Errorf("unknown workload %q (have cache, shard, failover)", opt.Workload)
}

// hostInfo captures the host facts at measurement time — inside the
// GOMAXPROCS window the workers actually ran under, not whatever the
// process was restored to afterwards.
type hostInfo struct {
	NumCPU     int
	GoMaxProcs int
}

// tpcaInputs records the TPC/A inbound lookup stream and the connection
// population every lookup-table workload replays, plus the RSS steering
// secret that partitions them across shards.
func tpcaInputs(opt options) ([]tpca.Op, []core.Key, hashfn.Keyed, error) {
	stream, err := tpca.Stream(opt.Users, opt.TxnsPer, opt.Seed)
	if err != nil {
		return nil, nil, hashfn.Keyed{}, err
	}
	keys := make([]core.Key, opt.Users)
	for i := range keys {
		keys[i] = tpca.UserKey(i)
	}
	return stream, keys, hashfn.KeyedFromRNG(rng.New(opt.Seed ^ 0x5157_9e3779b97f4a)), nil
}

// measureRound runs one shard.MeasureSharded pass observed into m and
// returns its round record plus the raw result.
func measureRound(cfg shard.ThroughputConfig, m *telemetry.DemuxMetrics) (round, shard.ThroughputResult, error) {
	before := m.ExaminedSnapshot()
	cfg.Metrics = m
	res, err := shard.MeasureSharded(cfg)
	if err != nil {
		return round{}, res, err
	}
	h := histDiff(m.ExaminedSnapshot(), before)
	return round{
		NsPerOp:       res.NsPerOp,
		LookupsPerSec: res.OpsPerSec,
		MeanExamined:  res.Stats.MeanExamined(),
		CacheHitRate:  res.Stats.HitRate(),
		ExaminedP50:   h.Quantile(0.50),
		ExaminedP90:   h.Quantile(0.90),
		ExaminedP99:   h.Quantile(0.99),
	}, res, nil
}

// keepBest appends rd to the rounds and promotes it to best when it is
// the fastest so far.
func keepBest(rounds *[]round, best *round, rd round) {
	*rounds = append(*rounds, rd)
	if rd.LookupsPerSec > best.LookupsPerSec {
		*best = rd
	}
}

// histDiff subtracts an earlier snapshot of the same histogram, giving
// the per-round view of a histogram that accumulates across rounds. Max
// is carried from the later snapshot (it cannot be un-accumulated).
func histDiff(after, before telemetry.HistogramSnapshot) telemetry.HistogramSnapshot {
	d := after
	d.Count -= before.Count
	d.Sum -= before.Sum
	d.Bucket = make([]uint64, len(after.Bucket))
	for i := range d.Bucket {
		d.Bucket[i] = after.Bucket[i] - before.Bucket[i]
	}
	return d
}
