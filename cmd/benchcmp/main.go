// Command benchcmp compares two `go test -json` benchmark artifacts (the
// committed BENCH_<date>.json files) and fails on performance regressions
// in the optimized paths.
//
// Usage:
//
//	benchcmp [-threshold 0.20] [-gate /opt,BenchmarkCompile/] old.json new.json
//
// Every benchmark present in both files is printed with its ns/op delta;
// benchmarks whose name contains one of the comma-separated gate substrings
// (default "/opt", the fast-path halves of the opt/ref speedup pairs;
// bench-compare adds the twinless cold compile) exit non-zero when they
// regress by more than the threshold. Reference halves and allocation
// counts are reported but never gate: the ref paths exist for equivalence
// proofs, not speed.
//
// Absolute ns/op comparisons across artifacts recorded on different days
// see whatever the machine was doing each day; the opt/ref speedup ratio
// is measured within one run, so machine drift cancels out of it. A gated
// /opt benchmark with a /ref twin therefore only counts as regressed when
// both its absolute ns/op AND its opt-over-ref speedup degrade beyond the
// threshold — a genuinely slower fast path fails both, a slow CI box
// fails neither test that matters. Gated benchmarks without a twin gate
// on the absolute delta alone.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// benchResult is one benchmark's metrics across the artifact. Repeated
// runs (-count>1) keep the per-metric minimum: external load on a shared
// CI box only ever adds time, so the fastest run is the least-noisy
// estimate of the code's true cost (allocs/op is deterministic and the
// minimum is simply its value).
type benchResult struct {
	NsPerOp     float64
	AllocsPerOp float64
	hasAllocs   bool
}

// testEvent is the subset of test2json's event schema we consume. Test
// carries the benchmark name: test2json often splits a benchmark's name
// and its metrics into separate output events, so the Output line alone
// may hold only the numbers.
type testEvent struct {
	Action string `json:"Action"`
	Test   string `json:"Test"`
	Output string `json:"Output"`
}

func main() {
	var (
		threshold = flag.Float64("threshold", 0.20, "max allowed ns/op regression on gated benchmarks (0.20 = +20%)")
		gate      = flag.String("gate", "/opt", "comma-separated substrings naming the benchmarks that gate (empty gates all)")
	)
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchcmp [-threshold F] [-gate SUBSTR] old.json new.json")
		os.Exit(2)
	}
	oldRes, err := parseFile(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchcmp:", err)
		os.Exit(2)
	}
	newRes, err := parseFile(flag.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchcmp:", err)
		os.Exit(2)
	}
	regressions := report(os.Stdout, oldRes, newRes, *threshold, *gate)
	if regressions > 0 {
		fmt.Fprintf(os.Stderr, "benchcmp: %d gated benchmark(s) regressed more than %.0f%%\n",
			regressions, *threshold*100)
		os.Exit(1)
	}
}

func parseFile(path string) (map[string]*benchResult, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(map[string]*benchResult)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		var ev testEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if ev.Action != "output" {
			continue
		}
		name, res, ok := parseBenchLine(ev.Test, ev.Output)
		if !ok {
			continue
		}
		if prev := out[name]; prev != nil {
			if res.NsPerOp < prev.NsPerOp {
				prev.NsPerOp = res.NsPerOp
			}
			if res.hasAllocs && (!prev.hasAllocs || res.AllocsPerOp < prev.AllocsPerOp) {
				prev.AllocsPerOp = res.AllocsPerOp
				prev.hasAllocs = true
			}
		} else {
			out[name] = &res
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no benchmark result lines", path)
	}
	return out, nil
}

// parseBenchLine parses one benchmark metrics line. Depending on how
// test2json chunked the output, the line is either the classic full form
//
//	BenchmarkName/sub-8   	 854	   1418 ns/op	       0 B/op	       0 allocs/op
//
// or just the numbers (" 854\t 1418 ns/op\t ...") with the name carried by
// the event's Test field. The name (Test field preferred, -GOMAXPROCS
// suffix stripped) and metrics are returned; announcement lines, RUN/PASS
// chatter and non-benchmark output report ok=false.
func parseBenchLine(test, line string) (string, benchResult, bool) {
	fields := strings.Fields(line)
	name := test
	if len(fields) > 0 && strings.HasPrefix(fields[0], "Benchmark") {
		if name == "" {
			name = fields[0]
		}
		fields = fields[1:]
	}
	if name == "" || !strings.HasPrefix(name, "Benchmark") || len(fields) < 3 {
		return "", benchResult{}, false
	}
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	// First field must be the iteration count, or this is a RUN/announce
	// line rather than a metrics line.
	if _, err := strconv.Atoi(fields[0]); err != nil {
		return "", benchResult{}, false
	}
	var res benchResult
	seen := false
	for i := 1; i+1 < len(fields); i += 2 {
		val, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return "", benchResult{}, false
		}
		switch fields[i+1] {
		case "ns/op":
			res.NsPerOp = val
			seen = true
		case "allocs/op":
			res.AllocsPerOp = val
			res.hasAllocs = true
		}
	}
	return name, res, seen
}

// report prints the comparison table and returns the number of gated
// regressions beyond the threshold.
func report(w io.Writer, oldRes, newRes map[string]*benchResult, threshold float64, gate string) int {
	names := make([]string, 0, len(newRes))
	for name := range newRes {
		names = append(names, name)
	}
	sort.Strings(names)
	regressions := 0
	fmt.Fprintf(w, "%-44s %14s %14s %8s\n", "benchmark", "old ns/op", "new ns/op", "delta")
	for _, name := range names {
		n := newRes[name]
		o, ok := oldRes[name]
		if !ok {
			fmt.Fprintf(w, "%-44s %14s %14.0f %8s\n", name, "-", n.NsPerOp, "new")
			continue
		}
		delta := (n.NsPerOp - o.NsPerOp) / o.NsPerOp
		mark := ""
		gated := gate == "" || slices.ContainsFunc(strings.Split(gate, ","), func(g string) bool { return strings.Contains(name, g) })
		if gated && delta > threshold {
			if speedupHeld(name, oldRes, newRes, threshold) {
				mark = "  drift (opt/ref speedup held)"
			} else {
				mark = "  REGRESSION"
				regressions++
			}
		}
		alloc := ""
		if n.hasAllocs {
			alloc = fmt.Sprintf("  (%.0f allocs)", n.AllocsPerOp)
		}
		fmt.Fprintf(w, "%-44s %14.0f %14.0f %+7.1f%%%s%s\n",
			name, o.NsPerOp, n.NsPerOp, delta*100, mark, alloc)
	}
	vanished := make([]string, 0)
	for name := range oldRes {
		if _, ok := newRes[name]; !ok {
			vanished = append(vanished, name)
		}
	}
	sort.Strings(vanished)
	for _, name := range vanished {
		fmt.Fprintf(w, "%-44s vanished from new artifact\n", name)
	}
	return regressions
}

// speedupHeld reports whether an /opt benchmark's speedup over its /ref
// twin — the machine-drift-immune signal — stayed within the threshold.
// False when there is no twin in both artifacts, so twinless benchmarks
// gate on the absolute delta.
func speedupHeld(name string, oldRes, newRes map[string]*benchResult, threshold float64) bool {
	if !strings.HasSuffix(name, "/opt") {
		return false
	}
	twin := strings.TrimSuffix(name, "/opt") + "/ref"
	oOpt, oRef, nOpt, nRef := oldRes[name], oldRes[twin], newRes[name], newRes[twin]
	if oOpt == nil || oRef == nil || nOpt == nil || nRef == nil ||
		oOpt.NsPerOp <= 0 || nOpt.NsPerOp <= 0 || oRef.NsPerOp <= 0 || nRef.NsPerOp <= 0 {
		return false
	}
	oldSpeedup := oRef.NsPerOp / oOpt.NsPerOp
	newSpeedup := nRef.NsPerOp / nOpt.NsPerOp
	return newSpeedup >= oldSpeedup*(1-threshold)
}
