package shard

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"tcpdemux/internal/core"
	"tcpdemux/internal/hashfn"
	"tcpdemux/internal/telemetry"
	"tcpdemux/internal/tpca"
)

// ThroughputConfig parameterizes one MeasureSharded run.
type ThroughputConfig struct {
	// Shards is the number of queues (>= 1; 1 is the single-queue
	// baseline every speedup is measured against).
	Shards int
	// TotalOps is the number of lookup operations across all shards; each
	// shard performs its steering-weighted share.
	TotalOps int
	// Stream is the recorded TPC/A lookup sequence (tpca.Stream).
	Stream []tpca.Op
	// Keys is the full connection population to insert; each shard
	// receives only the keys that steer to it.
	Keys []core.Key
	// NewDemuxer builds one shard's private discipline. Required. It may
	// also configure the table, e.g. a flat table's prefetch depth.
	NewDemuxer func(shard int) core.Demuxer
	// Batch > 1 drives lookups in trains of this size, through the
	// table's native batch path when it has one (core.LookupBatch).
	Batch int
	// SteerKey is the RSS steering secret (DefaultKeyed if zero-valued
	// keys are fine for a bench; pass hashfn.DefaultKeyed).
	SteerKey hashfn.Keyed
	// Metrics, when non-nil, receives every lookup Result through a
	// per-worker telemetry.Observer, flushed at worker exit (the
	// single-writer contract).
	Metrics *telemetry.DemuxMetrics
}

// ThroughputResult reports one measured sharded run.
type ThroughputResult struct {
	// Ops, Elapsed, NsPerOp, OpsPerSec describe the aggregate rate: total
	// operations across every shard over the wall-clock window.
	Ops       int
	Elapsed   time.Duration
	NsPerOp   float64
	OpsPerSec float64
	// Stats is the merged demuxer statistics across shards.
	Stats core.Stats
	// PerShardOps and PerShardPCBs record the steering split, so reports
	// can show the partition balance.
	PerShardOps  []int
	PerShardPCBs []int
}

// MeasureSharded measures the multi-queue configuration the way a NIC
// with RSS would run it: the inbound stream is pre-partitioned by the
// keyed steering hash (that work happens in silicon on real hardware, so
// it is untimed here), each shard's private demuxer is populated with
// exactly the connections that steer to it, and then N workers drain
// their private sub-streams concurrently — no locks, no shared mutable
// state, per-worker Observer flushed at exit. With one
// shard it is the single-writer harness every lookup table is measured
// through.
//
// The Shards=1 run of the same configuration is the single-queue
// baseline. The speedup at N has two independent sources: core
// parallelism (N workers on N cores), and the paper's C(N) partitioning
// effect — each shard's table holds ~1/N of the PCBs, so every chained
// lookup walks a proportionally shorter chain. The second source pays
// even on a single core, which is what makes the sweep meaningful on
// small hosts.
func MeasureSharded(cfg ThroughputConfig) (ThroughputResult, error) {
	switch {
	case cfg.Shards < 1:
		return ThroughputResult{}, errors.New("shard: need at least one shard")
	case cfg.TotalOps < 1:
		return ThroughputResult{}, errors.New("shard: need at least one op")
	case len(cfg.Stream) == 0:
		return ThroughputResult{}, errors.New("shard: empty lookup stream")
	case cfg.NewDemuxer == nil:
		return ThroughputResult{}, errors.New("shard: NewDemuxer is required")
	}
	steer := NewSteering(cfg.Shards, cfg.SteerKey)

	// Untimed RSS model: split the recorded stream and the connection
	// population by steering hash.
	subStream := make([][]tpca.Op, cfg.Shards)
	for _, op := range cfg.Stream {
		i := steer.Shard(op.Key.Tuple())
		subStream[i] = append(subStream[i], op)
	}
	demux := make([]core.Demuxer, cfg.Shards)
	pcbs := make([]int, cfg.Shards)
	for i := 0; i < cfg.Shards; i++ {
		demux[i] = cfg.NewDemuxer(i)
	}
	for _, k := range cfg.Keys {
		i := steer.Shard(k.Tuple())
		if err := demux[i].Insert(core.NewPCB(k)); err != nil {
			return ThroughputResult{}, fmt.Errorf("shard %d: %w", i, err)
		}
		pcbs[i]++
	}

	// Each shard's op quota is its steering-weighted share of TotalOps —
	// the load a NIC would actually hand it. The rounding remainder goes
	// to the first shard with a sub-stream to replay, never to an idle
	// one, so every counted op is run.
	shardOps := make([]int, cfg.Shards)
	assigned, busy := 0, -1
	for i := range shardOps {
		shardOps[i] = cfg.TotalOps * len(subStream[i]) / len(cfg.Stream)
		assigned += shardOps[i]
		if busy < 0 && len(subStream[i]) > 0 {
			busy = i
		}
	}
	shardOps[busy] += cfg.TotalOps - assigned

	var (
		wg    sync.WaitGroup
		start = make(chan struct{})
	)
	for i := 0; i < cfg.Shards; i++ {
		if shardOps[i] == 0 || len(subStream[i]) == 0 {
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			d := demux[i]
			var ob *telemetry.Observer
			if cfg.Metrics != nil {
				ob = telemetry.NewObserver(cfg.Metrics)
				defer ob.Flush()
			}
			stream := subStream[i]
			pos := 0
			var (
				keys    []core.Key
				dir     core.Direction
				results []core.Result
			)
			flush := func() {
				if len(keys) > 0 {
					results = core.LookupBatch(d, keys, dir, results)
					keys = keys[:0]
					if ob != nil {
						for _, r := range results {
							ob.Observe(r)
						}
					}
				}
			}
			<-start
			for n := 0; n < shardOps[i]; n++ {
				op := stream[pos]
				pos++
				if pos == len(stream) {
					pos = 0
				}
				if cfg.Batch > 1 {
					dir = op.Dir
					keys = append(keys, op.Key)
					if len(keys) >= cfg.Batch {
						flush()
					}
				} else if r := d.Lookup(op.Key, op.Dir); ob != nil {
					ob.Observe(r)
				}
			}
			flush()
		}(i)
	}
	t0 := time.Now() //demux:wallclock throughput measurement is the one legitimate wall-clock consumer: it reports real elapsed time, not virtual time
	close(start)
	wg.Wait()
	elapsed := time.Since(t0) //demux:wallclock closes the measured section opened at t0 above

	res := ThroughputResult{
		Ops:          cfg.TotalOps,
		Elapsed:      elapsed,
		PerShardOps:  shardOps,
		PerShardPCBs: pcbs,
	}
	for i := range demux {
		st := demux[i].Stats()
		res.Stats.Lookups += st.Lookups
		res.Stats.Hits += st.Hits
		res.Stats.Misses += st.Misses
		res.Stats.WildcardHits += st.WildcardHits
		res.Stats.Examined += st.Examined
		if st.MaxExamined > res.Stats.MaxExamined {
			res.Stats.MaxExamined = st.MaxExamined
		}
	}
	if elapsed > 0 {
		res.NsPerOp = float64(elapsed.Nanoseconds()) / float64(cfg.TotalOps)
		res.OpsPerSec = float64(cfg.TotalOps) / elapsed.Seconds()
	}
	return res, nil
}
