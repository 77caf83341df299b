package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// readRecords loads an -out file: one JSON record per line.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		recs = append(recs, rec)
	}
	return recs, sc.Err()
}

// samples gathers the untraced values of one metric on one workload.
func samples(recs []record, workload, metric string) []float64 {
	var xs []float64
	for _, rec := range recs {
		if rec.Workload == workload && rec.Trace == 0 {
			if v, ok := rec.Metrics[metric]; ok {
				xs = append(xs, v.Value)
			}
		}
	}
	return xs
}

// verdict applies one metric's bound to two sets of runs. B is worse when
// its median is worse than A's by more than bound x A's median. When it
// is not worse but either side's quartile range is wider than the bound,
// the runs cannot tell a regression of that size from noise: unresolved.
func verdict(m metricSpec, a, b []float64) string {
	ma, mb := median(a), median(b)
	worse := mb - ma
	if m.Better == "higher" {
		worse = ma - mb
	}
	limit := m.Bound * ma
	spread := func(xs []float64) float64 { return quantile(xs, 0.75) - quantile(xs, 0.25) }
	switch {
	case worse > limit:
		return "worse"
	case spread(a) > limit || spread(b) > limit:
		return "unresolved"
	}
	return "ok"
}

// compareFiles prints one row per (workload, end-to-end metric) present
// in both files and reports whether any row is worse.
func compareFiles(w io.Writer, pathA, pathB string) (bool, error) {
	a, err := readRecords(pathA)
	if err != nil {
		return false, err
	}
	b, err := readRecords(pathB)
	if err != nil {
		return false, err
	}
	anyWorse := false
	fmt.Fprintf(w, "%-16s %-18s %14s %14s %8s %6s  %s\n",
		"workload", "metric", "A median", "B median", "change", "bound", "verdict")
	for _, wl := range workloads {
		for _, m := range endToEnd {
			xa, xb := samples(a, wl.Name, m.Name), samples(b, wl.Name, m.Name)
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			v := verdict(m, xa, xb)
			anyWorse = anyWorse || v == "worse"
			fmt.Fprintf(w, "%-16s %-18s %14.6g %14.6g %+7.1f%% %5.0f%%  %s (n=%d,%d; IQR %.1f%%, %.1f%%)\n",
				wl.Name, m.Name, median(xa), median(xb),
				100*ratio(median(xb)-median(xa), median(xa)), 100*m.Bound, v, len(xa), len(xb),
				100*ratio(quantile(xa, 0.75)-quantile(xa, 0.25), median(xa)),
				100*ratio(quantile(xb, 0.75)-quantile(xb, 0.25), median(xb)))
		}
	}
	return anyWorse, nil
}
