package main

import (
	"fmt"
	"runtime"

	"tcpdemux/internal/cachesim"
	"tcpdemux/internal/core"
	"tcpdemux/internal/discipline"
	"tcpdemux/internal/flat"
	"tcpdemux/internal/shard"
	"tcpdemux/internal/telemetry"
)

// The cache workload (BENCH_cache.json) pits the chained Sequent table
// against the cache-conscious open-addressing tables from internal/flat,
// each measured single-writer on one shard of shard.MeasureSharded — the
// form the sharded engine runs them in. Sequent runs per-packet and
// batched; the flat tables additionally sweep the batch path's prefetch
// pipeline depth k, since the whole point of the software pipeline is to
// overlap the probe-group line fill for packet i+k with the resolution
// of packet i.
var (
	cacheChained = []string{"sequent"}
	cacheFlat    = []string{"flat-hopscotch", "flat-cuckoo"}
	cacheDepths  = []int{0, 1, 2, 4, 8}
)

// modelEstimate is one internal/cachesim replay embedded beside the
// measured numbers: mean entries/PCBs examined per lookup and mean
// estimated stall-inclusive cycles per lookup on the Era1992 hierarchy.
type modelEstimate struct {
	Layout          string  `json:"layout"`
	MeanExamined    float64 `json:"meanExamined"`
	CyclesPerLookup float64 `json:"cyclesPerLookup"`
}

// cacheSummary holds the EXP-CACHE acceptance numbers: the best flat
// batched configuration against the chained Sequent per-packet baseline,
// compared on nsPerOp of their best rounds.
type cacheSummary struct {
	SequentPerPacketNsPerOp       float64        `json:"sequentPerPacketNsPerOp"`
	FlatBatchNsPerOp              float64        `json:"flatBatchNsPerOp"`
	FlatBatchConfig               string         `json:"flatBatchConfig"`
	FlatBatchOverSequentPerPacket float64        `json:"flatBatchOverSequentPerPacket"`
	FlatBatchBeatsSequent         bool           `json:"flatBatchBeatsSequentPerPacket"`
	BestPrefetchDepth             map[string]int `json:"bestPrefetchDepth"`
}

// cacheReport is the cache-workload JSON document (BENCH_cache.json).
type cacheReport struct {
	Benchmark  string         `json:"benchmark"`
	GOOS       string         `json:"goos"`
	GOARCH     string         `json:"goarch"`
	NumCPU     int            `json:"numCPU"`
	GoMaxProcs int            `json:"gomaxprocs"`
	Config     map[string]any `json:"config"`
	Results    []result       `json:"results"`
	// Model carries the cachesim stall estimates for the two layouts so
	// EXPERIMENTS.md can show modeled and measured side by side from one
	// artifact.
	Model     []modelEstimate    `json:"cacheModel"`
	Summary   cacheSummary       `json:"summary"`
	Telemetry telemetry.Snapshot `json:"telemetry"`
}

// cacheConfig names one measured configuration: a discipline in one
// lookup mode. depth is the flat tables' prefetch pipeline depth; -1
// leaves the table's default untouched (Sequent has no pipeline).
type cacheConfig struct {
	discipline string
	mode       string
	batch      int
	depth      int
}

// cacheConfigs builds the measured configuration matrix.
func cacheConfigs(opt options) []cacheConfig {
	var configs []cacheConfig
	for _, name := range cacheChained {
		configs = append(configs, cacheConfig{name, "perpacket", 0, -1})
		if opt.Batch > 1 {
			configs = append(configs, cacheConfig{name, fmt.Sprintf("batch%d", opt.Batch), opt.Batch, -1})
		}
	}
	for _, name := range cacheFlat {
		configs = append(configs, cacheConfig{name, "perpacket", 0, -1})
		if opt.Batch > 1 {
			for _, k := range cacheDepths {
				configs = append(configs, cacheConfig{
					name, fmt.Sprintf("batch%d-k%d", opt.Batch, k), opt.Batch, k})
			}
		}
	}
	return configs
}

// newTable returns the single-shard table factory for c: a fresh
// instance of the selected discipline with c's prefetch depth applied.
func (c cacheConfig) newTable(sel discipline.Selection) func(int) core.Demuxer {
	mk := sel.PerShard()
	return func(i int) core.Demuxer {
		d := mk(i)
		if t, ok := d.(flat.Table); ok && c.depth >= 0 {
			t.SetPrefetchDepth(c.depth)
		}
		return d
	}
}

// modelEstimates replays the chained and flat lookup patterns through
// internal/cachesim at the measured population and chain count.
func modelEstimates(opt options) ([]modelEstimate, error) {
	lookups := 4 * opt.Users
	if lookups < 2000 {
		lookups = 2000
	}
	mkModel := func() (*cachesim.Model, error) {
		return cachesim.NewModel(cachesim.Era1992, opt.Users, opt.Seed)
	}
	ms, err := mkModel()
	if err != nil {
		return nil, err
	}
	seq := cachesim.SequentLookups(ms, opt.Users, opt.Chains, lookups, opt.Seed)
	mf, err := mkModel()
	if err != nil {
		return nil, err
	}
	flat := cachesim.FlatLookups(mf, opt.Users, lookups, opt.Seed)
	return []modelEstimate{
		{Layout: "chained-sequent", MeanExamined: float64(seq.Examined), CyclesPerLookup: seq.Cycles},
		{Layout: "flat-window", MeanExamined: float64(flat.Examined), CyclesPerLookup: flat.Cycles},
	}, nil
}

// runCache executes the cache workload and assembles the report. Every
// configuration runs the same recorded TPC/A stream through one shard of
// shard.MeasureSharded, -ops lookups per round, interleaved across
// configurations per the file-header methodology. Single-writer tables
// make each configuration's meanExamined exact and repeatable.
func runCache(opt options) (*cacheReport, error) {
	stream, keys, steerKey, err := tpcaInputs(opt)
	if err != nil {
		return nil, err
	}
	configs := cacheConfigs(opt)
	reg := telemetry.NewRegistry()
	results := make([]result, len(configs))
	metrics := make([]*telemetry.DemuxMetrics, len(configs))
	tables := make([]func(int) core.Demuxer, len(configs))
	for i, c := range configs {
		sel, err := discipline.Select(c.discipline, "multiplicative", opt.Chains)
		if err != nil {
			return nil, err
		}
		results[i] = result{Discipline: c.discipline, Mode: c.mode}
		metrics[i] = telemetry.NewDemuxMetrics(reg, c.discipline+"/"+c.mode)
		tables[i] = c.newTable(sel)
	}
	for r := 0; r < opt.Rounds; r++ {
		for i, c := range configs {
			rd, _, err := measureRound(shard.ThroughputConfig{
				Shards:     1,
				TotalOps:   opt.Ops,
				Stream:     stream,
				Keys:       keys,
				NewDemuxer: tables[i],
				Batch:      c.batch,
				SteerKey:   steerKey,
			}, metrics[i])
			if err != nil {
				return nil, err
			}
			keepBest(&results[i].Rounds, &results[i].Best, rd)
		}
	}
	model, err := modelEstimates(opt)
	if err != nil {
		return nil, err
	}

	sum := cacheSummary{BestPrefetchDepth: map[string]int{}}
	bestDepthNs := map[string]float64{}
	for _, r := range results {
		switch {
		case r.Discipline == "sequent" && r.Mode == "perpacket":
			sum.SequentPerPacketNsPerOp = r.Best.NsPerOp
		case r.Mode != "perpacket" && isFlat(r.Discipline):
			if sum.FlatBatchNsPerOp == 0 || r.Best.NsPerOp < sum.FlatBatchNsPerOp {
				sum.FlatBatchNsPerOp = r.Best.NsPerOp
				sum.FlatBatchConfig = r.Discipline + "/" + r.Mode
			}
			var depth int
			if _, err := fmt.Sscanf(r.Mode, "batch%d-k%d", new(int), &depth); err == nil {
				if ns, seen := bestDepthNs[r.Discipline]; !seen || r.Best.NsPerOp < ns {
					bestDepthNs[r.Discipline] = r.Best.NsPerOp
					sum.BestPrefetchDepth[r.Discipline] = depth
				}
			}
		}
	}
	if sum.FlatBatchNsPerOp > 0 && sum.SequentPerPacketNsPerOp > 0 {
		sum.FlatBatchOverSequentPerPacket = sum.SequentPerPacketNsPerOp / sum.FlatBatchNsPerOp
		sum.FlatBatchBeatsSequent = sum.FlatBatchNsPerOp < sum.SequentPerPacketNsPerOp
	}

	return &cacheReport{
		Benchmark:  "cache-conscious flat tables vs chained Sequent, single-writer, TPC/A mix (shard.MeasureSharded, 1 shard)",
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Config: map[string]any{
			"users": opt.Users, "txnsPerUser": opt.TxnsPer,
			"totalOps": opt.Ops, "batch": opt.Batch, "shards": 1,
			"chains": opt.Chains, "rounds": opt.Rounds, "seed": opt.Seed,
			"hash": "multiplicative", "prefetchDepths": cacheDepths,
		},
		Results:   results,
		Model:     model,
		Summary:   sum,
		Telemetry: reg.Snapshot(),
	}, nil
}

func isFlat(discipline string) bool {
	for _, name := range cacheFlat {
		if discipline == name {
			return true
		}
	}
	return false
}
