// Command cawslint is the project's multichecker: it runs the
// internal/analysis suite — the eight analyzers determinism, genbump,
// exhaustive, floatcmp, refparity, globalmut, sharedwrite and noalloc — over the
// packages matched by its arguments (default ./...) and exits non-zero
// on any diagnostic. There is no warn-only mode; suppress a false
// positive in place with
//
//	//lint:allow <analyzer> <reason>
//
// (the reason is mandatory and an unused or unexplained suppression is
// itself a diagnostic). See DESIGN.md §8 for the invariant each analyzer
// encodes.
//
// Beyond linting, two listing modes feed other gates: -noalloc-ranges
// prints the //caws:noalloc line ranges scripts/noalloc-check.sh
// intersects with the compiler's escape diagnostics, and -suppressions
// inventories every active //lint:allow directive for review audits.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/analysis"
)

func main() {
	list := flag.Bool("list", false, "list the analyzers and exit")
	dir := flag.String("C", "", "change to this directory before resolving patterns")
	timing := flag.Bool("timing", false, "print per-analyzer wall time to stderr")
	ranges := flag.Bool("noalloc-ranges", false,
		"print //caws:noalloc function and sanctioned sub-ranges instead of linting")
	suppressions := flag.Bool("suppressions", false,
		"print every //lint:allow directive in the tree instead of linting")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"usage: cawslint [-C dir] [-list] [-timing] [-noalloc-ranges] [-suppressions] [package patterns]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	suite := analysis.Suite()
	if *list {
		for _, a := range suite {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := analysis.Load(*dir, patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cawslint:", err)
		os.Exit(2)
	}

	if *ranges {
		for _, r := range analysis.NoAllocRanges(pkgs) {
			if r.Kind == "func" {
				fmt.Printf("func %s %d %d %s\n", r.File, r.StartLine, r.EndLine, r.Func)
			} else {
				fmt.Printf("allow %s %d %d\n", r.File, r.StartLine, r.EndLine)
			}
		}
		return
	}
	if *suppressions {
		sups := analysis.Suppressions(pkgs)
		for _, s := range sups {
			fmt.Printf("%s:%d: [%s] %s\n", s.Pos.Filename, s.Pos.Line, s.Analyzer, s.Reason)
		}
		fmt.Fprintf(os.Stderr, "cawslint: %d active suppression(s)\n", len(sups))
		return
	}

	diags, timings := analysis.RunAnalyzers(pkgs, suite)
	if *timing {
		for _, t := range timings {
			fmt.Fprintf(os.Stderr, "cawslint: timing %-12s %s\n", t.Name, t.Elapsed)
		}
	}
	for _, d := range diags {
		fmt.Println(d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "cawslint: %d diagnostic(s)\n", len(diags))
		os.Exit(1)
	}
}
