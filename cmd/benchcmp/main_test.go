package main

import (
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestParseBenchLine(t *testing.T) {
	cases := []struct {
		test   string
		line   string
		name   string
		ns     float64
		allocs float64
		ok     bool
	}{
		// Classic single-line form, with and without the Test field.
		{"", "BenchmarkJobCost/opt-8   \t  854301\t      1418 ns/op\t       0 B/op\t       0 allocs/op\n",
			"BenchmarkJobCost/opt", 1418, 0, true},
		{"BenchmarkJobCost/opt", "BenchmarkJobCost/opt-8 \t 854301\t 1418 ns/op\t 0 B/op\t 0 allocs/op\n",
			"BenchmarkJobCost/opt", 1418, 0, true},
		// test2json's split form: name only in the Test field, Output is
		// just the metrics.
		{"BenchmarkSelectAdaptive/opt", "  115776\t     10399 ns/op\t    8209 B/op\t       3 allocs/op\n",
			"BenchmarkSelectAdaptive/opt", 10399, 3, true},
		{"", "BenchmarkRunContinuous-16 \t 100 \t 6200000 ns/op\n", "BenchmarkRunContinuous", 6200000, 0, true},
		{"BenchmarkJobCost/opt", "=== RUN   BenchmarkJobCost/opt\n", "", 0, 0, false},
		{"BenchmarkJobCost/opt", "BenchmarkJobCost/opt\n", "", 0, 0, false}, // announcement, no metrics
		{"", "PASS\n", "", 0, 0, false},
		{"", "ok  \trepro/internal/core\t2.1s\n", "", 0, 0, false},
		// Non-benchmark test chatter must not parse even with numbers.
		{"TestFoo", "  123\t 456 ns/op\n", "", 0, 0, false},
	}
	for _, tc := range cases {
		name, res, ok := parseBenchLine(tc.test, tc.line)
		if ok != tc.ok {
			t.Errorf("%q: ok = %v, want %v", tc.line, ok, tc.ok)
			continue
		}
		if !ok {
			continue
		}
		if name != tc.name {
			t.Errorf("%q: name = %q, want %q", tc.line, name, tc.name)
		}
		if math.Abs(res.NsPerOp-tc.ns) > 1e-9 {
			t.Errorf("%q: ns/op = %v, want %v", tc.line, res.NsPerOp, tc.ns)
		}
		if math.Abs(res.AllocsPerOp-tc.allocs) > 1e-9 {
			t.Errorf("%q: allocs/op = %v, want %v", tc.line, res.AllocsPerOp, tc.allocs)
		}
	}
}

// writeArtifact renders benchmark lines as the `go test -json` events the
// Makefile's bench target writes.
func writeArtifact(t *testing.T, dir, name string, lines ...string) string {
	t.Helper()
	var sb strings.Builder
	sb.WriteString(`{"Action":"start","Package":"repro/internal/core"}` + "\n")
	for _, l := range lines {
		b, err := jsonOutput(l)
		if err != nil {
			t.Fatal(err)
		}
		sb.WriteString(b + "\n")
	}
	sb.WriteString(`{"Action":"pass","Package":"repro/internal/core"}` + "\n")
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func jsonOutput(line string) (string, error) {
	// Hand-rolled to keep the fixture readable; test2json escapes tabs.
	r := strings.NewReplacer("\t", `\t`)
	return `{"Action":"output","Package":"repro/internal/core","Output":"` + r.Replace(line) + `\n"}`, nil
}

func TestReportGatesOptRegressions(t *testing.T) {
	dir := t.TempDir()
	oldPath := writeArtifact(t, dir, "old.json",
		"BenchmarkJobCost/opt-8 \t 1000 \t 1000 ns/op \t 0 B/op \t 0 allocs/op",
		"BenchmarkJobCost/ref-8 \t 1000 \t 10000 ns/op \t 0 B/op \t 0 allocs/op",
		"BenchmarkSelect/opt-8 \t 1000 \t 5000 ns/op \t 8 B/op \t 1 allocs/op",
		"BenchmarkDrift/opt-8 \t 1000 \t 2000 ns/op \t 0 B/op \t 0 allocs/op",
		"BenchmarkDrift/ref-8 \t 1000 \t 8000 ns/op \t 0 B/op \t 0 allocs/op",
		"BenchmarkTwinless/opt-8 \t 1000 \t 1000 ns/op \t 0 B/op \t 0 allocs/op",
		"BenchmarkPrice/permuted/512-8 \t 1000 \t 1000 ns/op \t 0 B/op \t 9 allocs/op",
	)
	newPath := writeArtifact(t, dir, "new.json",
		// Real regression: opt +50% while ref is flat, so the speedup
		// collapsed 10x -> 6.7x.
		"BenchmarkJobCost/opt-8 \t 1000 \t 1500 ns/op \t 0 B/op \t 0 allocs/op",
		"BenchmarkJobCost/ref-8 \t 1000 \t 10000 ns/op \t 0 B/op \t 0 allocs/op",
		// +10%: within threshold regardless of twins.
		"BenchmarkSelect/opt-8 \t 1000 \t 5500 ns/op \t 8 B/op \t 1 allocs/op",
		// Machine drift: opt and ref both +50%, the 4x speedup held.
		"BenchmarkDrift/opt-8 \t 1000 \t 3000 ns/op \t 0 B/op \t 0 allocs/op",
		"BenchmarkDrift/ref-8 \t 1000 \t 12000 ns/op \t 0 B/op \t 0 allocs/op",
		// +50% with no /ref twin: gates on the absolute delta.
		"BenchmarkTwinless/opt-8 \t 1000 \t 1500 ns/op \t 0 B/op \t 0 allocs/op",
		// +50%, named by a second gate substring only.
		"BenchmarkPrice/permuted/512-8 \t 1000 \t 1500 ns/op \t 0 B/op \t 9 allocs/op",
		// No baseline: informational only.
		"BenchmarkNew/opt-8 \t 1000 \t 100 ns/op \t 0 B/op \t 0 allocs/op",
	)
	oldRes, err := parseFile(oldPath)
	if err != nil {
		t.Fatal(err)
	}
	newRes, err := parseFile(newPath)
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if got := report(&out, oldRes, newRes, 0.20, "/opt"); got != 2 {
		t.Errorf("regressions = %d, want 2 (JobCost/opt + Twinless/opt)\n%s", got, out.String())
	}
	if got := report(io.Discard, oldRes, newRes, 0.20, "/opt,BenchmarkPrice/"); got != 3 {
		t.Errorf("regressions with the gate list = %d, want 3 (the two above + Compile/permuted/512)", got)
	}
	if !strings.Contains(out.String(), "REGRESSION") {
		t.Errorf("report lacks REGRESSION marker:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "drift") {
		t.Errorf("report lacks drift marker for BenchmarkDrift/opt:\n%s", out.String())
	}
}

func TestParseFileTakesMinOfRepeatedRuns(t *testing.T) {
	dir := t.TempDir()
	path := writeArtifact(t, dir, "rep.json",
		"BenchmarkJobCost/opt-8 \t 1000 \t 3000 ns/op \t 0 B/op \t 4 allocs/op",
		"BenchmarkJobCost/opt-8 \t 1000 \t 1000 ns/op \t 0 B/op \t 2 allocs/op",
		"BenchmarkJobCost/opt-8 \t 1000 \t 2000 ns/op \t 0 B/op \t 2 allocs/op",
	)
	res, err := parseFile(path)
	if err != nil {
		t.Fatal(err)
	}
	r := res["BenchmarkJobCost/opt"]
	if r == nil {
		t.Fatal("missing result")
	}
	if math.Abs(r.NsPerOp-1000) > 1e-9 || math.Abs(r.AllocsPerOp-2) > 1e-9 {
		t.Errorf("min = %v ns/op, %v allocs/op; want 1000, 2", r.NsPerOp, r.AllocsPerOp)
	}
}

func TestParseFileRejectsEmptyArtifact(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "empty.json")
	if err := os.WriteFile(path, []byte(`{"Action":"start"}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := parseFile(path); err == nil {
		t.Error("expected error for artifact without benchmark lines")
	}
}
