package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// gateFile writes a minimal report with the given best nsPerOp per
// "discipline/mode" configuration and returns its path.
func gateFile(t *testing.T, name string, ns map[string]float64) string {
	t.Helper()
	rep := gateReport{Benchmark: "test"}
	for cfg, v := range ns {
		d, m, _ := strings.Cut(cfg, "/")
		rep.Results = append(rep.Results, result{
			Discipline: d, Mode: m, Best: round{NsPerOp: v, LookupsPerSec: 1e9 / v},
		})
	}
	return writeGateReport(t, name, rep)
}

// writeGateReport marshals rep into a temporary file and returns its
// path.
func writeGateReport(t *testing.T, name string, rep gateReport) string {
	t.Helper()
	buf, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	p := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(p, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestCompareReports(t *testing.T) {
	oldRep := &gateReport{Results: []result{
		{Discipline: "sequent", Mode: "perpacket", Best: round{NsPerOp: 100}},
		{Discipline: "flat-hopscotch", Mode: "batch64-k4", Best: round{NsPerOp: 40}},
		{Discipline: "gone", Mode: "perpacket", Best: round{NsPerOp: 10}},
	}}
	newRep := &gateReport{Results: []result{
		{Discipline: "sequent", Mode: "perpacket", Best: round{NsPerOp: 110}},
		{Discipline: "flat-hopscotch", Mode: "batch64-k4", Best: round{NsPerOp: 60}},
		{Discipline: "added", Mode: "perpacket", Best: round{NsPerOp: 5}},
	}}
	deltas, missing, err := compareReports(oldRep, newRep, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	if len(deltas) != 2 {
		t.Fatalf("got %d deltas, want 2 shared configs: %+v", len(deltas), deltas)
	}
	byCfg := map[string]delta{}
	for _, d := range deltas {
		byCfg[d.Config] = d
	}
	if d := byCfg["sequent/perpacket"]; d.Regressed || d.Change < 0.09 || d.Change > 0.11 {
		t.Fatalf("10%% growth inside tolerance misjudged: %+v", d)
	}
	if d := byCfg["flat-hopscotch/batch64-k4"]; !d.Regressed {
		t.Fatalf("50%% growth not flagged: %+v", d)
	}
	// The config measured only by the old report must surface as missing,
	// not silently shrink the gate.
	if len(missing) != 1 || missing[0] != "gone/perpacket" {
		t.Fatalf("missing configs = %v, want [gone/perpacket]", missing)
	}

	if _, _, err := compareReports(oldRep, &gateReport{Results: []result{
		{Discipline: "other", Mode: "x", Best: round{NsPerOp: 1}},
	}}, 0.15); err != nil {
		t.Fatal("reports with missing configs should compare (and gate on the misses), not error")
	}
	// Truly disjoint in both directions with nothing measured in common
	// and nothing to miss is impossible once old has results; an empty
	// old report against an empty new one is the remaining error case.
	if _, _, err := compareReports(&gateReport{}, &gateReport{}, 0.15); err == nil {
		t.Fatal("empty reports should error")
	}
}

func TestRunCompareGate(t *testing.T) {
	base := map[string]float64{
		"sequent/perpacket":         100,
		"flat-cuckoo/perpacket":     300,
		"flat-hopscotch/batch64-k4": 40,
	}
	slower := map[string]float64{
		"sequent/perpacket":         130, // +30%: beyond 15%
		"flat-cuckoo/perpacket":     310,
		"flat-hopscotch/batch64-k4": 41,
	}
	faster := map[string]float64{
		"sequent/perpacket":         90,
		"flat-cuckoo/perpacket":     305, // +1.7%: inside
		"flat-hopscotch/batch64-k4": 35,
	}
	old := gateFile(t, "old.json", base)

	var out bytes.Buffer
	if code := runCompare([]string{old, gateFile(t, "ok.json", faster)}, defaultTolerance, &out); code != 0 {
		t.Fatalf("within-tolerance run exited %d: %s", code, out.String())
	}
	out.Reset()
	if code := runCompare([]string{old, gateFile(t, "bad.json", slower)}, defaultTolerance, &out); code != 1 {
		t.Fatalf("regression exited %d, want 1: %s", code, out.String())
	}
	if !strings.Contains(out.String(), "FAIL sequent/perpacket") {
		t.Fatalf("regressed config not named:\n%s", out.String())
	}

	// A trailing -tolerance (after the positional file names, the
	// documented CLI shape) must override the flag-parsed default.
	out.Reset()
	if code := runCompare([]string{old, gateFile(t, "bad2.json", slower), "-tolerance", "0.5"}, defaultTolerance, &out); code != 0 {
		t.Fatalf("loose tolerance still failed (%d): %s", code, out.String())
	}
	out.Reset()
	if code := runCompare([]string{old, gateFile(t, "bad3.json", slower), "-tolerance=0.5"}, defaultTolerance, &out); code != 0 {
		t.Fatalf("-tolerance= form not honored (%d): %s", code, out.String())
	}

	// A new report that silently dropped a measured configuration (a
	// renamed discipline, say) must fail the gate even when every config
	// it does share is within tolerance — the vacuous-pass regression.
	renamed := map[string]float64{
		"sequent/perpacket":     100,
		"flat-cuckoo/perpacket": 300,
		// flat-hopscotch/batch64-k4 vanished
	}
	out.Reset()
	if code := runCompare([]string{old, gateFile(t, "renamed.json", renamed)}, defaultTolerance, &out); code != 1 {
		t.Fatalf("missing config exited %d, want 1: %s", code, out.String())
	}
	if !strings.Contains(out.String(), "MISS flat-hopscotch/batch64-k4") {
		t.Fatalf("missing config not named:\n%s", out.String())
	}

	// Usage and input errors exit 2, distinct from a regression.
	for _, args := range [][]string{
		{old},
		{old, filepath.Join(t.TempDir(), "missing.json")},
		{old, old, "-tolerance", "bogus"},
	} {
		out.Reset()
		if code := runCompare(args, defaultTolerance, &out); code != 2 {
			t.Fatalf("args %v exited %d, want 2: %s", args, code, out.String())
		}
	}
}

// TestRunCompareGatesExaminedExactly: meanExamined, cacheHitRate and
// the examined quantiles are deterministic, so the gate fails on any
// change of a shared configuration's best-round value — even one far
// inside the nsPerOp tolerance, and even when the run got faster.
func TestRunCompareGatesExaminedExactly(t *testing.T) {
	rep := func(examined float64) gateReport {
		return gateReport{Benchmark: "test", Results: []result{
			{Discipline: "sequent", Mode: "perpacket", Best: round{NsPerOp: 1000, MeanExamined: 160.095235,
				CacheHitRate: 0.000895, ExaminedP50: 160.3500269978402, ExaminedP90: 381.12656293768623, ExaminedP99: 498.0126562937686}},
			{Discipline: "flat-hopscotch", Mode: "batch64-k4", Best: round{NsPerOp: 50, MeanExamined: examined}},
		}}
	}
	old := writeGateReport(t, "old.json", rep(1.289755))

	var out bytes.Buffer
	if code := runCompare([]string{old, writeGateReport(t, "same.json", rep(1.289755))}, defaultTolerance, &out); code != 0 {
		t.Fatalf("identical examined means exited %d: %s", code, out.String())
	}
	out.Reset()
	if code := runCompare([]string{old, writeGateReport(t, "drift.json", rep(1.289756))}, defaultTolerance, &out); code != 1 {
		t.Fatalf("changed examined mean exited %d, want 1: %s", code, out.String())
	}
	if !strings.Contains(out.String(), "FAIL flat-hopscotch/batch64-k4") ||
		!strings.Contains(out.String(), "meanExamined 1.289755 -> 1.289756") {
		t.Fatalf("examined change not named:\n%s", out.String())
	}
	if strings.Contains(out.String(), "FAIL sequent/perpacket") {
		t.Fatalf("unchanged configuration flagged:\n%s", out.String())
	}

	// The hit rate and each examined quantile are gated the same way.
	for _, tc := range []struct {
		field string
		bump  func(*round)
	}{
		{"cacheHitRate", func(r *round) { r.CacheHitRate += 1e-6 }},
		{"examinedP50", func(r *round) { r.ExaminedP50 += 1e-9 }},
		{"examinedP90", func(r *round) { r.ExaminedP90 *= 1.5 }},
		{"examinedP99", func(r *round) { r.ExaminedP99 = 0 }},
	} {
		drift := rep(1.289755)
		tc.bump(&drift.Results[0].Best)
		out.Reset()
		if code := runCompare([]string{old, writeGateReport(t, tc.field+".json", drift)}, defaultTolerance, &out); code != 1 {
			t.Fatalf("changed %s exited %d, want 1: %s", tc.field, code, out.String())
		}
		if !strings.Contains(out.String(), "FAIL sequent/perpacket") || !strings.Contains(out.String(), tc.field+" ") {
			t.Fatalf("%s change not named:\n%s", tc.field, out.String())
		}
	}
}
