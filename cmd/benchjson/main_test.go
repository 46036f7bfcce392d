package main

import (
	"encoding/json"
	"testing"
)

// tinyOpts is a seconds-sized operating point for the lookup-table
// workloads.
func tinyOpts(workload string) options {
	opt := defaults()
	opt.Workload = workload
	opt.Rounds = 2
	opt.GoMaxProcs = 2
	opt.Ops = 2000
	opt.Users = 60
	opt.TxnsPer = 2
	opt.Batch = 16
	return opt
}

// TestRunSmoke drives the workload dispatcher over the two lookup-table
// workloads and checks each report's structure: every configuration
// measured, rounds recorded, best rounds populated, a summary note, and
// an unknown workload rejected.
func TestRunSmoke(t *testing.T) {
	for _, workload := range []string{"cache", "shard"} {
		opt := tinyOpts(workload)
		rep, note, err := run(opt)
		if err != nil {
			t.Fatalf("%s: %v", workload, err)
		}
		if note == "" {
			t.Fatalf("%s: empty summary note", workload)
		}
		buf, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		var back gateReport
		if err := json.Unmarshal(buf, &back); err != nil {
			t.Fatal(err)
		}
		if len(back.Results) == 0 {
			t.Fatalf("%s: no results", workload)
		}
		for _, r := range back.Results {
			if len(r.Rounds) != opt.Rounds {
				t.Fatalf("%s %s/%s: %d rounds", workload, r.Discipline, r.Mode, len(r.Rounds))
			}
			if r.Best.LookupsPerSec <= 0 || r.Best.NsPerOp <= 0 {
				t.Fatalf("%s %s/%s: empty best round %+v", workload, r.Discipline, r.Mode, r.Best)
			}
			if r.Best.MeanExamined < 1 {
				t.Fatalf("%s %s/%s: implausible examinations %+v", workload, r.Discipline, r.Mode, r.Best)
			}
		}
	}
	if _, _, err := run(tinyOpts("parallel")); err == nil {
		t.Fatal("retired parallel workload accepted")
	}
}

// TestRunEmbedsTelemetry checks the cache report carries per-round
// examined percentiles and the accumulated registry snapshot, one
// examined histogram family per configuration.
func TestRunEmbedsTelemetry(t *testing.T) {
	opt := tinyOpts("cache")
	opt.Rounds = 1
	opt.Batch = 0

	rep, err := runCache(opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rep.Results {
		if r.Best.ExaminedP99 < r.Best.ExaminedP50 {
			t.Fatalf("%s: p99 %.1f < p50 %.1f", r.Discipline, r.Best.ExaminedP99, r.Best.ExaminedP50)
		}
		if r.Best.ExaminedP50 <= 0 {
			t.Fatalf("%s: empty percentiles %+v", r.Discipline, r.Best)
		}
	}
	// Each config registers one examined histogram per lookup outcome;
	// grouped by discipline label they must cover every config, with a
	// total equal to the lookups the rounds ran.
	perDiscipline := map[string]uint64{}
	for _, h := range rep.Telemetry.Histograms {
		if h.Name != "demux_examined_pcbs" {
			continue
		}
		for _, l := range h.Labels {
			if l.Key == "discipline" {
				perDiscipline[l.Value] += h.Count
			}
		}
	}
	if len(perDiscipline) != len(rep.Results) {
		t.Fatalf("telemetry block covers %d disciplines for %d configs: %v",
			len(perDiscipline), len(rep.Results), perDiscipline)
	}
	for d, n := range perDiscipline {
		if n != uint64(opt.Ops*opt.Rounds) {
			t.Fatalf("%s: %d observations, want %d", d, n, opt.Ops*opt.Rounds)
		}
	}
}
