package main

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/faults"
)

func TestRunCompareWithExports(t *testing.T) {
	dir := t.TempDir()
	csvPath := filepath.Join(dir, "jobs.csv")
	jsonPath := filepath.Join(dir, "cmp.json")
	err := run("Theta", "", "", 40, 1, "adaptive", "RHVD", "fifo",
		0.9, 0.7, true, false, false, false, true, csvPath, jsonPath, faults.Model{})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{csvPath, jsonPath} {
		info, err := os.Stat(p)
		if err != nil || info.Size() == 0 {
			t.Fatalf("export %s missing or empty: %v", p, err)
		}
	}
}

func TestRunSingleAlgorithmPerJob(t *testing.T) {
	if err := run("Mira", "", "", 20, 2, "balanced", "RD", "sjf",
		0.5, 0.6, false, true, true, true, true, "", "", faults.Model{}); err != nil {
		t.Fatal(err)
	}
}

func TestRunWithFaultInjection(t *testing.T) {
	fm := faults.Model{MTBF: 5e5, MTTR: 3e3, DrainFraction: 0.25, Seed: 7}
	if err := run("Theta", "", "", 60, 3, "adaptive", "RHVD", "fifo",
		0.9, 0.7, false, false, false, false, true, "", "", fm); err != nil {
		t.Fatal(err)
	}
}

func TestRunWithTopologyAndSWF(t *testing.T) {
	dir := t.TempDir()
	topoPath := filepath.Join(dir, "topology.conf")
	conf := "SwitchName=s0 Nodes=n[0-31]\nSwitchName=s1 Nodes=n[32-63]\nSwitchName=s2 Switches=s[0-1]\n"
	if err := os.WriteFile(topoPath, []byte(conf), 0o644); err != nil {
		t.Fatal(err)
	}
	swfPath := filepath.Join(dir, "log.swf")
	swfContent := "1 0 -1 600 8 -1 -1 8 1200 -1 1 -1 -1 -1 -1 -1 -1 -1\n" +
		"2 60 -1 300 16 -1 -1 16 900 -1 1 -1 -1 -1 -1 -1 -1 -1\n"
	if err := os.WriteFile(swfPath, []byte(swfContent), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run("", topoPath, swfPath, 0, 1, "greedy", "Binomial", "fifo",
		1.0, 0.7, false, false, false, false, true, "", "", faults.Model{}); err != nil {
		t.Fatal(err)
	}
}

func TestRunErrors(t *testing.T) {
	cases := []struct {
		name string
		err  error
	}{
		{"bad machine", run("Nope", "", "", 10, 1, "adaptive", "RD", "fifo", 0.9, 0.7, false, false, false, false, true, "", "", faults.Model{})},
		{"bad algorithm", run("Theta", "", "", 10, 1, "frob", "RD", "fifo", 0.9, 0.7, false, false, false, false, true, "", "", faults.Model{})},
		{"bad pattern", run("Theta", "", "", 10, 1, "adaptive", "frob", "fifo", 0.9, 0.7, false, false, false, false, true, "", "", faults.Model{})},
		{"bad policy", run("Theta", "", "", 10, 1, "adaptive", "RD", "frob", 0.9, 0.7, false, false, false, false, true, "", "", faults.Model{})},
		{"bad fraction", run("Theta", "", "", 10, 1, "adaptive", "RD", "fifo", 1.9, 0.7, false, false, false, false, true, "", "", faults.Model{})},
		{"missing topology", run("", "/nonexistent/topo.conf", "", 10, 1, "adaptive", "RD", "fifo", 0.9, 0.7, false, false, false, false, true, "", "", faults.Model{})},
		{"missing log", run("Theta", "", "/nonexistent/log.swf", 10, 1, "adaptive", "RD", "fifo", 0.9, 0.7, false, false, false, false, true, "", "", faults.Model{})},
	}
	for _, c := range cases {
		if c.err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}
