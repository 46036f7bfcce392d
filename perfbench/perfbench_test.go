package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"tcpdemux/internal/shard"
)

// tinySizes shrink every workload so the self-test runs in seconds.
var tinySizes = sizes{
	tpca:  tpcaParams{users: 200, txns: 2000, shards: 4, chains: 19},
	churn: churnParams{clients: 10, txns: 2000, minBurst: 1, maxBurst: 4, shards: 4, chains: 19},
	live: liveParams{
		subLoad: 100 * time.Millisecond, warmup: 200, reopenEvery: 100,
		shape: churnParams{clients: liveConns, txns: 1000, minBurst: 100, maxBurst: 100, shards: 4, chains: 512},
	},
}

type jsonResult struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// lastLine parses the JSON result line of a report.
func lastLine(t *testing.T, out string) jsonResult {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var r jsonResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("last line is not the JSON result: %v\n%s", err, out)
	}
	return r
}

func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bench); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []struct{ Name, Unit string }, want []metricSpec) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", what, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s %s, program %s %s", what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", bench.EndToEnd, endToEnd)
	same("per_layer", bench.PerLayer, perLayer)
	if len(bench.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(bench.Workloads), len(workloads))
	}
	for i, w := range bench.Workloads {
		if w.Name != workloads[i] {
			t.Errorf("workload %d: BENCHMARK.json %s, program %s", i, w.Name, workloads[i])
		}
	}
}

// TestEveryWorkloadPrintsEveryMetric runs each workload at tiny sizes,
// untraced and traced, and checks that the result line carries exactly
// the listed metrics with their units and that every check passed.
func TestEveryWorkloadPrintsEveryMetric(t *testing.T) {
	dir := t.TempDir()
	demuxd := filepath.Join(dir, "demuxd")
	if out, err := exec.Command("go", "build", "-o", demuxd, "tcpdemux/cmd/demuxd").CombinedOutput(); err != nil {
		t.Fatalf("building demuxd: %v\n%s", err, out)
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			cfg := config{workload: w, seed: 7, trace: traced, demuxd: demuxd, spansDir: dir, sizes: tinySizes}
			res, err := runWorkload(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, traced, err)
			}
			var out bytes.Buffer
			if err := report(&out, cfg, res); err != nil {
				t.Fatalf("%s trace=%v: %v", w, traced, err)
			}
			r := lastLine(t, out.String())
			if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d; problems %v", w, traced, r.Correct, r.Failed, r.Attempted, res.problems)
			}
			specs := endToEnd
			if traced {
				specs = perLayer
			}
			if len(r.Metrics) != len(specs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w, traced, len(r.Metrics), len(specs))
			}
			for _, s := range specs {
				m, ok := r.Metrics[s.name]
				if !ok || m.Unit != s.unit {
					t.Errorf("%s trace=%v: metric %s missing or unit %q, want %q", w, traced, s.name, m.Unit, s.unit)
				}
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w, s.name, m.Value)
				}
			}
			for _, want := range []string{"host: numCPU=", "GOMAXPROCS=", "frag: unmeasured"} {
				if !strings.Contains(out.String(), want) {
					t.Errorf("%s trace=%v: output lacks %q", w, traced, want)
				}
			}
		}
	}
}

// TestWrongOracleByteFailsTheRun flips one byte of a recorded,
// oracle-checked response: every replay must then report the mismatch
// and the result must read correct=false.
func TestWrongOracleByteFailsTheRun(t *testing.T) {
	rec, err := recordTPCA(3, tinySizes.tpca)
	if err != nil {
		t.Fatal(err)
	}
	i := bytes.Index(rec.egress.buf, []byte("OK "))
	if i < 0 {
		t.Fatal("no response frame in the recording")
	}
	rec.egress.buf[i+3] ^= 1
	cfg := config{workload: "tpca-paper", seed: 3, spansDir: t.TempDir(), sizes: tinySizes}
	res, _, err := runInProcess(cfg, rec, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.failed == 0 {
		t.Fatal("a corrupted oracle byte went unnoticed")
	}
	var out bytes.Buffer
	if err := report(&out, cfg, res); err != nil {
		t.Fatal(err)
	}
	if r := lastLine(t, out.String()); r.Correct {
		t.Fatal("result reads correct=true after an oracle mismatch")
	}
}

// TestUnbalancedLedgerFails checks that both conservation checks reject
// an unbalanced ledger.
func TestUnbalancedLedgerFails(t *testing.T) {
	var ps passStats
	ps.checkLedger(shard.Accounting{FramesIn: 5, Consumed: 5}, 0)
	if ps.failed != 0 {
		t.Fatalf("balanced ledger failed: %v", ps.problems)
	}
	ps.checkLedger(shard.Accounting{FramesIn: 5, Consumed: 4}, 0)
	if ps.failed == 0 {
		t.Fatal("unbalanced StackSet ledger passed")
	}

	g, ok := parseDrainLine("demuxd: drained — accepted=12 served=10 shed=0 drained=1 (txns=99)")
	if !ok || g.accepted != 12 || g.txns != 99 {
		t.Fatalf("parseDrainLine = %+v, %v", g, ok)
	}
	if checkDrain(g, nil) == nil {
		t.Fatal("unbalanced demuxd ledger passed")
	}
	if err := checkDrain(drainLedger{accepted: 3, served: 2, drained: 1}, nil); err != nil {
		t.Fatalf("balanced demuxd ledger failed: %v", err)
	}
}
