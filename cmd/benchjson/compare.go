package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// defaultTolerance is the allowed fractional nsPerOp growth before the
// gate fails. 15% absorbs best-of-rounds jitter on shared CI hosts while
// still catching a real regression in a lookup path.
const defaultTolerance = 0.15

// gateReport is the minimal shape the gate needs from any benchjson
// report — cache, shard and failover all carry per-configuration best
// rounds.
type gateReport struct {
	Benchmark string   `json:"benchmark"`
	Results   []result `json:"results"`
}

// exactFields are the best-round fields that are deterministic for a
// given -n/-ops/-seed: every table is single-writer and replays a
// recorded stream, so the table statistics and the examined histogram
// (whose log2-bucket quantile estimates are pure functions of its
// counts) repeat exactly, and any difference at all is an algorithmic
// change, not noise.
var exactFields = []struct {
	name string
	get  func(round) float64
}{
	{"meanExamined", func(r round) float64 { return r.MeanExamined }},
	{"cacheHitRate", func(r round) float64 { return r.CacheHitRate }},
	{"examinedP50", func(r round) float64 { return r.ExaminedP50 }},
	{"examinedP90", func(r round) float64 { return r.ExaminedP90 }},
	{"examinedP99", func(r round) float64 { return r.ExaminedP99 }},
}

// delta is one configuration's old-vs-new comparison on the best round.
// Change is the fractional nsPerOp change — positive means the new run
// is slower. Drifted names each exactFields entry that differs, as
// "field old -> new".
type delta struct {
	Config    string
	OldNs     float64
	NewNs     float64
	Change    float64
	Regressed bool
	Drifted   []string
}

// compareReports pairs configurations present in both reports by
// discipline/mode and flags any whose best nsPerOp grew beyond tol or
// whose deterministic best-round fields differ.
// Configurations only the new report measures are skipped — a new run
// is free to add modes — but every configuration the old report
// measured must reappear in the new one, and the missing ones are
// returned so the gate can fail instead of passing vacuously: a renamed
// discipline must not empty the gate silently.
func compareReports(oldRep, newRep *gateReport, tol float64) ([]delta, []string, error) {
	oldBest := make(map[string]round, len(oldRep.Results))
	for _, r := range oldRep.Results {
		oldBest[r.Discipline+"/"+r.Mode] = r.Best
	}
	matched := make(map[string]bool, len(oldBest))
	var deltas []delta
	for _, r := range newRep.Results {
		key := r.Discipline + "/" + r.Mode
		old, ok := oldBest[key]
		if !ok {
			continue
		}
		matched[key] = true
		d := delta{Config: key, OldNs: old.NsPerOp, NewNs: r.Best.NsPerOp}
		for _, f := range exactFields {
			if o, n := f.get(old), f.get(r.Best); o != n {
				d.Drifted = append(d.Drifted, fmt.Sprintf("%s %v -> %v", f.name, o, n))
			}
		}
		if old.NsPerOp > 0 && r.Best.NsPerOp > 0 {
			d.Change = (r.Best.NsPerOp - old.NsPerOp) / old.NsPerOp
			d.Regressed = d.Change > tol
		}
		deltas = append(deltas, d)
	}
	var missing []string
	for key := range oldBest { //demux:orderinvariant collected keys are sorted below before use

		if !matched[key] {
			missing = append(missing, key)
		}
	}
	sort.Strings(missing)
	if len(deltas) == 0 && len(missing) == 0 {
		return nil, nil, fmt.Errorf("reports share no measured configurations (%q vs %q)",
			oldRep.Benchmark, newRep.Benchmark)
	}
	return deltas, missing, nil
}

func loadGateReport(path string) (*gateReport, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep gateReport
	if err := json.Unmarshal(buf, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(rep.Results) == 0 {
		return nil, fmt.Errorf("%s: no results — not a cache/shard/failover benchjson report", path)
	}
	return &rep, nil
}

// runCompare implements `benchjson -compare old.json new.json
// [-tolerance 0.15]` and returns the process exit code: 0 when every
// shared configuration is within tolerance, 1 on regression, 2 on usage
// or input errors. flag.Parse stops at the first positional argument, so
// a -tolerance given after the file names lands in args and is parsed
// here.
func runCompare(args []string, tol float64, w io.Writer) int {
	var paths []string
	for i := 0; i < len(args); i++ {
		a := args[i]
		val := ""
		switch {
		case strings.HasPrefix(a, "-tolerance=") || strings.HasPrefix(a, "--tolerance="):
			val = a[strings.Index(a, "=")+1:]
		case a == "-tolerance" || a == "--tolerance":
			i++
			if i >= len(args) {
				fmt.Fprintln(w, "benchjson: -tolerance needs a value")
				return 2
			}
			val = args[i]
		default:
			paths = append(paths, a)
			continue
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil || v < 0 {
			fmt.Fprintf(w, "benchjson: bad tolerance %q\n", val)
			return 2
		}
		tol = v
	}
	if len(paths) != 2 {
		fmt.Fprintln(w, "usage: benchjson -compare old.json new.json [-tolerance 0.15]")
		return 2
	}
	oldRep, err := loadGateReport(paths[0])
	if err != nil {
		fmt.Fprintln(w, "benchjson:", err)
		return 2
	}
	newRep, err := loadGateReport(paths[1])
	if err != nil {
		fmt.Fprintln(w, "benchjson:", err)
		return 2
	}
	deltas, missing, err := compareReports(oldRep, newRep, tol)
	if err != nil {
		fmt.Fprintln(w, "benchjson:", err)
		return 2
	}
	regressed, drifted := 0, 0
	for _, d := range deltas {
		mark := "ok  "
		if d.Regressed {
			mark = "FAIL"
			regressed++
		}
		fmt.Fprintf(w, "%s %-36s %10.1f -> %10.1f ns/op (%+.1f%%)\n",
			mark, d.Config, d.OldNs, d.NewNs, 100*d.Change)
		if len(d.Drifted) > 0 {
			drifted++
		}
		for _, change := range d.Drifted {
			fmt.Fprintf(w, "FAIL %-36s %s (deterministic: must match exactly)\n", d.Config, change)
		}
	}
	for _, key := range missing {
		fmt.Fprintf(w, "MISS %-36s measured in %s but absent from %s\n", key, paths[0], paths[1])
	}
	if len(missing) > 0 {
		fmt.Fprintf(w, "benchjson: %d configuration(s) from the old report were not measured by the new one\n",
			len(missing))
		return 1
	}
	if regressed > 0 || drifted > 0 {
		fmt.Fprintf(w, "benchjson: %d configuration(s) regressed beyond the %.0f%% nsPerOp tolerance, %d changed a deterministic field\n",
			regressed, tol*100, drifted)
		return 1
	}
	fmt.Fprintf(w, "benchjson: %d configuration(s) within the %.0f%% nsPerOp tolerance, examined and hit-rate fields identical\n",
		len(deltas), tol*100)
	return 0
}
