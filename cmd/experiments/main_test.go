package main

import (
	"io"
	"os"
	"strings"
	"testing"
)

func TestRunQuickExperiments(t *testing.T) {
	// Each experiment at test scale; fig1 is independent of the size knobs.
	for _, exp := range []string{"fig1", "table3", "table4", "future"} {
		if err := run(io.Discard, exp, 60, 15, 1, 0.9, 0.7, "Theta", "binomial",
			true, "effective-hops", exp == "fig1", 0); err != nil {
			t.Fatalf("%s: %v", exp, err)
		}
	}
}

func TestRunErrors(t *testing.T) {
	if err := run(io.Discard, "table3", 30, 10, 1, 0.9, 0.7, "Nope", "binomial", false, "effective-hops", false, 0); err == nil {
		t.Error("unknown machine accepted")
	}
	if err := run(io.Discard, "table3", 30, 10, 1, 0.9, 0.7, "Theta", "binomial", false, "frob", false, 0); err == nil {
		t.Error("unknown cost mode accepted")
	}
	if err := run(io.Discard, "fig8", 30, 10, 1, 0.9, 0.7, "Theta", "frob", false, "effective-hops", false, 0); err == nil {
		t.Error("unknown pattern accepted")
	}
}

// TestFullScaleOutputsMatchCommitted regenerates the committed paper-scale
// outputs and compares them byte for byte, leaving out only the "total:"
// timing lines: `-exp all -patterns all` against experiments_full.txt, and
// the hop-bytes Table 3 and Table 4 against experiments_hopbytes.txt.
// Every experiment's Check() runs on the way, so a shape violation at the
// paper's scale fails here too. A deliberate change to a paper number
// re-records the files in the same change.
func TestFullScaleOutputsMatchCommitted(t *testing.T) {
	if testing.Short() {
		t.Skip("paper scale: about 5 s")
	}
	render := func(exp, patterns, costmode string) string {
		var b strings.Builder
		if err := run(&b, exp, 1000, 200, 1, 0.9, 0.7, "Intrepid,Theta,Mira", patterns,
			true, costmode, false, 0); err != nil {
			t.Fatalf("%s %s: %v", exp, costmode, err)
		}
		return b.String()
	}
	for _, c := range []struct{ file, got string }{
		{"experiments_full.txt", render("all", "all", "effective-hops")},
		{"experiments_hopbytes.txt", render("table3", "binomial", "hop-bytes") + render("table4", "binomial", "hop-bytes")},
	} {
		want, err := os.ReadFile("../../" + c.file)
		if err != nil {
			t.Fatal(err)
		}
		wantLines, gotLines := untimed(string(want)), untimed(c.got)
		for i := 0; i < max(len(wantLines), len(gotLines)); i++ {
			w, g := "<end of output>", "<end of output>"
			if i < len(wantLines) {
				w = wantLines[i]
			}
			if i < len(gotLines) {
				g = gotLines[i]
			}
			if w != g {
				t.Errorf("%s: first difference at untimed line %d:\ncommitted: %q\nregenerated: %q",
					c.file, i+1, w, g)
				break
			}
		}
	}
}

// untimed splits an experiments output into lines, dropping the "total:"
// wall-clock lines.
func untimed(s string) []string {
	var lines []string
	for _, l := range strings.SplitAfter(s, "\n") {
		if !strings.HasPrefix(l, "total: ") {
			lines = append(lines, l)
		}
	}
	return lines
}
