package tcpdemux

import (
	"os"
	"testing"

	"tcpdemux/internal/core"
	"tcpdemux/internal/rng"
	"tcpdemux/internal/telemetry"
	"tcpdemux/internal/tpca"
)

// TestTelemetryOverhead is the instrumentation-cost acceptance: a
// single-writer Sequent table whose every lookup Result is handed to a
// telemetry.Observer — the way shard.MeasureSharded observes a worker's
// private table — must run the recorded TPC/A workload within 5% of the
// bare table. It re-measures
// both sides with testing.Benchmark, so it is a real wall-clock
// comparison and runs only when asked for (TELEMETRY_OVERHEAD=1),
// keeping make test stable on noisy machines.
func TestTelemetryOverhead(t *testing.T) {
	if os.Getenv("TELEMETRY_OVERHEAD") == "" {
		t.Skip("set TELEMETRY_OVERHEAD=1 to measure instrumentation overhead")
	}
	stream, err := tpca.Stream(1000, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	const users = 1000
	const readFraction = 0.99

	// The workload replays the recorded stream per packet (rng draw per
	// op, 1% connection churn on keys outside the population) against a
	// fresh table per benchmark run; the instrumented side differs only
	// by the Observe call on each Result, flushed at the end of the run.
	workload := func(instrumented bool) func(b *testing.B) {
		return func(b *testing.B) {
			var d core.Demuxer = core.NewSequentHash(19, nil)
			var ob *telemetry.Observer
			if instrumented {
				ob = telemetry.NewObserver(telemetry.NewDemuxMetrics(telemetry.NewRegistry(), "sequent"))
				defer ob.Flush()
			}
			for i := 0; i < users; i++ {
				if err := d.Insert(core.NewPCB(tpca.UserKey(i))); err != nil {
					b.Fatal(err)
				}
			}
			src := rng.New(42)
			pos := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if src.Float64() >= readFraction {
					k := tpca.UserKey(users + 100 + src.Intn(32))
					if !d.Remove(k) {
						_ = d.Insert(core.NewPCB(k))
					}
					continue
				}
				op := stream[pos]
				pos++
				if pos == len(stream) {
					pos = 0
				}
				if r := d.Lookup(op.Key, op.Dir); ob != nil {
					ob.Observe(r)
				}
			}
		}
	}

	// Interleave the two sides round by round and take each side's best,
	// the same drift defense benchjson uses: a background slowdown then
	// hits both sides instead of biasing whichever ran last. The first
	// round is a discarded warmup.
	testing.Benchmark(workload(false))
	bare, instr := 0.0, 0.0
	for i := 0; i < 5; i++ {
		b := float64(testing.Benchmark(workload(false)).NsPerOp())
		n := float64(testing.Benchmark(workload(true)).NsPerOp())
		if bare == 0 || b < bare {
			bare = b
		}
		if instr == 0 || n < instr {
			instr = n
		}
	}
	ratio := instr / bare
	t.Logf("bare %.1f ns/op, instrumented %.1f ns/op, ratio %.4f", bare, instr, ratio)
	if ratio > 1.05 {
		t.Errorf("telemetry overhead %.1f%% exceeds the 5%% budget", (ratio-1)*100)
	}
}
