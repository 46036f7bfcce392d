package shard

import (
	"testing"

	"tcpdemux/internal/core"
	"tcpdemux/internal/hashfn"
	"tcpdemux/internal/telemetry"
	"tcpdemux/internal/tpca"
)

// shardBenchInputs builds the TPC/A population and lookup stream the
// sharded throughput tests replay.
func shardBenchInputs(t *testing.T, users int) ([]tpca.Op, []core.Key) {
	t.Helper()
	stream, err := tpca.Stream(users, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]core.Key, users)
	for i := range keys {
		keys[i] = tpca.UserKey(i)
	}
	return stream, keys
}

// TestMeasureShardedPartitionEffect is the deterministic half of the
// sharding claim: with a fixed number of chains per table, steering the
// population across 4 private tables leaves each chain ~4x shorter, so
// the same lookup stream examines ~4x fewer PCBs in total. This is the
// paper's C(N) argument and it holds on any host, independent of core
// count — wall-clock speedup (BENCH_shard.json) layers on top.
func TestMeasureShardedPartitionEffect(t *testing.T) {
	const users = 4000
	stream, keys := shardBenchInputs(t, users)
	run := func(shards int) ThroughputResult {
		res, err := MeasureSharded(ThroughputConfig{
			Shards:   shards,
			TotalOps: 40_000,
			Stream:   stream,
			Keys:     keys,
			NewDemuxer: func(int) core.Demuxer {
				return core.NewSequentHash(0, hashfn.Multiplicative{})
			},
			SteerKey: hashfn.NewKeyed(0xfeed, 0xf00d),
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	single := run(1)
	quad := run(4)

	for _, res := range []ThroughputResult{single, quad} {
		gotPCBs, gotOps := 0, 0
		for i := range res.PerShardPCBs {
			gotPCBs += res.PerShardPCBs[i]
			gotOps += res.PerShardOps[i]
		}
		if gotPCBs != users {
			t.Fatalf("PerShardPCBs sums to %d, want %d", gotPCBs, users)
		}
		if gotOps != res.Ops {
			t.Fatalf("PerShardOps sums to %d, want %d", gotOps, res.Ops)
		}
		if res.Stats.Lookups != uint64(res.Ops) {
			t.Fatalf("Stats.Lookups = %d, want %d", res.Stats.Lookups, res.Ops)
		}
		if res.Stats.Misses != 0 {
			t.Fatalf("%d misses replaying the recorded stream", res.Stats.Misses)
		}
	}

	// Steering must have spread the population: no shard empty, none
	// holding more than half the users.
	for i, n := range quad.PerShardPCBs {
		if n == 0 || n > users/2 {
			t.Fatalf("shard %d holds %d/%d PCBs: steering unbalanced %v",
				i, n, users, quad.PerShardPCBs)
		}
	}

	meanSingle := single.Stats.MeanExamined()
	meanQuad := quad.Stats.MeanExamined()
	if ratio := meanSingle / meanQuad; ratio < 2.5 {
		t.Fatalf("partition effect too weak: examined/lookup %0.1f single vs %0.1f at 4 shards (%.2fx, want >= 2.5x)",
			meanSingle, meanQuad, ratio)
	}
}

// TestMeasureShardedBatchAndMetrics drives the batched train path with
// Metrics set and checks every train's Results land in the shared
// metrics after the per-worker flush, agreeing with the tables' stats.
func TestMeasureShardedBatchAndMetrics(t *testing.T) {
	const users = 512
	stream, keys := shardBenchInputs(t, users)
	reg := telemetry.NewRegistry()
	m := telemetry.NewDemuxMetrics(reg, "shard-test")
	res, err := MeasureSharded(ThroughputConfig{
		Shards:   2,
		TotalOps: 10_000,
		Stream:   stream,
		Keys:     keys,
		NewDemuxer: func(int) core.Demuxer {
			return core.NewSequentHash(0, hashfn.Multiplicative{})
		},
		Batch:    32,
		SteerKey: hashfn.NewKeyed(3, 5),
		Metrics:  m,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Lookups != uint64(res.Ops) {
		t.Fatalf("batched Stats.Lookups = %d, want %d", res.Stats.Lookups, res.Ops)
	}
	if h := m.ExaminedSnapshot(); h.Count != uint64(res.Ops) || h.Sum != res.Stats.Examined {
		t.Fatalf("observer flushed %d observations examining %d PCBs, want %d / %d",
			h.Count, h.Sum, res.Ops, res.Stats.Examined)
	}
}

// TestMeasureShardedCountsOnlyRunOps replays a tiny stream that steers
// nothing to shard 0, one key to shard 1 and two to shard 2, so the
// steering-weighted quotas (10 ops: 3 and 6) leave a rounding remainder.
// The remainder must be run by a shard with a sub-stream, not credited
// to the idle shard 0: every op the result reports was a lookup.
func TestMeasureShardedCountsOnlyRunOps(t *testing.T) {
	steerKey := hashfn.NewKeyed(11, 13)
	steer := NewSteering(3, steerKey)
	var stream []tpca.Op
	var keys []core.Key
	want := map[int]int{1: 1, 2: 2}
	for u := 0; len(keys) < 3; u++ {
		if u > 10_000 {
			t.Fatal("no keys steering to shards 1 and 2")
		}
		k := tpca.UserKey(u)
		if s := steer.Shard(k.Tuple()); want[s] > 0 {
			want[s]--
			keys = append(keys, k)
			stream = append(stream, tpca.Op{Key: k, Dir: core.DirData})
		}
	}
	for _, batch := range []int{0, 4} {
		res, err := MeasureSharded(ThroughputConfig{
			Shards:     3,
			TotalOps:   10,
			Stream:     stream,
			Keys:       keys,
			NewDemuxer: func(int) core.Demuxer { return core.NewSequentHash(0, nil) },
			Batch:      batch,
			SteerKey:   steerKey,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.Lookups != uint64(res.Ops) {
			t.Fatalf("batch %d: ran %d lookups, reported %d ops (per shard %v)",
				batch, res.Stats.Lookups, res.Ops, res.PerShardOps)
		}
		if res.PerShardOps[0] != 0 {
			t.Fatalf("batch %d: idle shard 0 credited %d ops: %v", batch, res.PerShardOps[0], res.PerShardOps)
		}
	}
}

// TestMeasureShardedRejectsBadConfig exercises the validation arms.
func TestMeasureShardedRejectsBadConfig(t *testing.T) {
	stream, keys := shardBenchInputs(t, 8)
	newDemux := func(int) core.Demuxer { return core.NewMapDemux() }
	bad := []ThroughputConfig{
		{Shards: 0, TotalOps: 1, Stream: stream, Keys: keys, NewDemuxer: newDemux},
		{Shards: 1, TotalOps: 0, Stream: stream, Keys: keys, NewDemuxer: newDemux},
		{Shards: 1, TotalOps: 1, Stream: nil, Keys: keys, NewDemuxer: newDemux},
		{Shards: 1, TotalOps: 1, Stream: stream, Keys: keys},
	}
	for i, cfg := range bad {
		if _, err := MeasureSharded(cfg); err == nil {
			t.Fatalf("config %d accepted, want error", i)
		}
	}
}
