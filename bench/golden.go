package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// golden.json holds the seed-1 fingerprints of every deterministic output:
// replay digests and simulated hours, sweep CSV digests, and the daemon
// workloads' exact counts. A mismatch is a failed operation. The file is
// compiled in, so a run needs nothing but its binary.
//
//go:embed golden.json
var goldenJSON []byte

const goldenPath = "bench/golden.json"

// goldens is one workload's section: want is the committed set, got what
// this run produced.
type goldens struct {
	want   map[string]string
	got    map[string]string
	update bool
}

func loadGoldens(workload string, update bool) (*goldens, error) {
	all := map[string]map[string]string{}
	if err := json.Unmarshal(goldenJSON, &all); err != nil {
		return nil, fmt.Errorf("bench: golden.json: %w", err)
	}
	return &goldens{want: all[workload], got: map[string]string{}, update: update}, nil
}

// save rewrites the workload's section of golden.json (run from the
// repository root) and prints what changed.
func (g *goldens) save(workload string, w io.Writer) error {
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		return fmt.Errorf("bench: -update-golden runs from the repository root: %w", err)
	}
	all := map[string]map[string]string{}
	if err := json.Unmarshal(raw, &all); err != nil {
		return err
	}
	keys := make([]string, 0, len(g.got))
	for k := range g.got {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if old, ok := all[workload][k]; !ok || old != g.got[k] {
			fmt.Fprintf(w, "golden %s %s: %q -> %q\n", workload, k, old, g.got[k])
		}
	}
	all[workload] = g.got
	out, err := json.MarshalIndent(all, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(goldenPath, append(out, '\n'), 0o644)
}
