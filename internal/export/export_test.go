package export

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"testing"

	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/workload"
)

func testResults(t *testing.T) []*sim.Result {
	t.Helper()
	trace := workload.Theta.Synthesize(40, 2).
		MustTag(0.9, collective.SinglePattern(collective.RD, 0.7), 3)
	topo := topology.Theta()
	var out []*sim.Result
	for _, alg := range []core.Algorithm{core.Default, core.Adaptive} {
		res, err := sim.RunContinuous(sim.Config{Topology: topo, Algorithm: alg}, trace)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, res)
	}
	return out
}

func TestJobsCSV(t *testing.T) {
	results := testResults(t)
	var buf bytes.Buffer
	if err := JobsCSV(&buf, results[0]); err != nil {
		t.Fatal(err)
	}
	records, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 41 { // header + 40 jobs
		t.Fatalf("%d records, want 41", len(records))
	}
	if records[0][0] != "job_id" || len(records[0]) != 12 {
		t.Fatalf("header = %v", records[0])
	}
	for _, rec := range records[1:] {
		if rec[2] != "comm" && rec[2] != "compute" {
			t.Fatalf("bad class %q", rec[2])
		}
	}
}

func TestComparisonJSON(t *testing.T) {
	results := testResults(t)
	var buf bytes.Buffer
	if err := ComparisonJSON(&buf, results); err != nil {
		t.Fatal(err)
	}
	var parsed []struct {
		Algorithm     string  `json:"algorithm"`
		ExecImprovPct float64 `json:"exec_improvement_pct"`
	}
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatal(err)
	}
	if len(parsed) != 2 || parsed[0].ExecImprovPct != 0 {
		t.Fatalf("parsed: %+v", parsed)
	}
	if parsed[1].ExecImprovPct < 0 {
		t.Fatalf("adaptive improvement %v negative", parsed[1].ExecImprovPct)
	}
	if err := ComparisonJSON(&buf, nil); err == nil {
		t.Fatal("empty results accepted")
	}
}
