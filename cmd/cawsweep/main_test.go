package main

import (
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

func TestRunSweep(t *testing.T) {
	out := filepath.Join(t.TempDir(), "sweep.csv")
	err := run("Theta", "rd", "0.3,0.9", "0.7", "default,adaptive", 40, 1,
		"effective-hops", "fifo", 0, out)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 5 { // header + 2 fractions × 2 algorithms
		t.Fatalf("%d CSV lines, want 5", len(lines))
	}
	// Every data row must carry the kernel-path column so the sweep output
	// records which cost path produced it — "aggregated", the one-pass
	// fast path.
	if !strings.Contains(lines[0], "cost_kernel") {
		t.Fatalf("header missing cost_kernel column: %s", lines[0])
	}
	for _, line := range lines[1:] {
		if !strings.Contains(line, ",aggregated,") {
			t.Fatalf("data row missing aggregated kernel marker: %s", line)
		}
	}
}

// TestRunSweepKernelColumnExact pins the cost_kernel column cell by cell
// at parallelism 1, 4, and NumCPU: every data row's column must equal
// "aggregated" exactly (not merely contain it), whatever the worker-pool
// size — the column is recorded per cell by concurrent workers, so a torn
// or stale read would surface here. The "reference" spelling of a
// Grid.Reference sweep is pinned by sweep.TestKernelColumnFollowsGridMode.
func TestRunSweepKernelColumnExact(t *testing.T) {
	kernelColumn := func(t *testing.T, parallel int, want string) {
		t.Helper()
		out := filepath.Join(t.TempDir(), "sweep.csv")
		err := run("Theta", "rd", "0.3,0.9", "0.7", "default,adaptive", 40, 1,
			"effective-hops", "fifo", parallel, out)
		if err != nil {
			t.Fatalf("-parallel %d: %v", parallel, err)
		}
		data, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(data)), "\n")
		header := strings.Split(lines[0], ",")
		col := -1
		for i, name := range header {
			if name == "cost_kernel" {
				col = i
			}
		}
		if col < 0 {
			t.Fatalf("-parallel %d: no cost_kernel column in %q", parallel, lines[0])
		}
		for _, line := range lines[1:] {
			fields := strings.Split(line, ",")
			if len(fields) <= col {
				t.Fatalf("-parallel %d: short row %q", parallel, line)
			}
			if fields[col] != want {
				t.Fatalf("-parallel %d: cost_kernel = %q, want %q (row %q)",
					parallel, fields[col], want, line)
			}
		}
	}
	for _, parallel := range []int{1, 4, runtime.NumCPU()} {
		kernelColumn(t, parallel, "aggregated")
	}
}

// TestRunSweepParallelByteIdentical runs the identical sweep at three
// worker-pool sizes and requires byte-identical CSV files: sharding is a
// wall-clock optimisation, never an output perturbation.
func TestRunSweepParallelByteIdentical(t *testing.T) {
	var outputs [][]byte
	for _, parallel := range []int{1, 4, 0} { // 0 = GOMAXPROCS
		out := filepath.Join(t.TempDir(), "sweep.csv")
		err := run("Theta", "rd", "0.3,0.9", "0.7", "default,adaptive", 40, 1,
			"effective-hops", "fifo", parallel, out)
		if err != nil {
			t.Fatalf("-parallel %d: %v", parallel, err)
		}
		data, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		outputs = append(outputs, data)
	}
	for i := 1; i < len(outputs); i++ {
		if string(outputs[i]) != string(outputs[0]) {
			t.Fatalf("sweep output differs between parallelism settings:\n%s\nvs\n%s",
				outputs[0], outputs[i])
		}
	}
}

func TestRunSweepErrors(t *testing.T) {
	cases := []error{
		run("Nope", "rd", "0.9", "0.7", "default", 10, 1, "effective-hops", "fifo", 0, ""),
		run("Theta", "frob", "0.9", "0.7", "default", 10, 1, "effective-hops", "fifo", 0, ""),
		run("Theta", "rd", "zzz", "0.7", "default", 10, 1, "effective-hops", "fifo", 0, ""),
		run("Theta", "rd", "0.9", "0.7", "frob", 10, 1, "effective-hops", "fifo", 0, ""),
		run("Theta", "rd", "0.9", "0.7", "default", 10, 1, "frob", "fifo", 0, ""),
		run("Theta", "rd", "0.9", "0.7", "default", 10, 1, "effective-hops", "frob", 0, ""),
	}
	for i, err := range cases {
		if err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}
