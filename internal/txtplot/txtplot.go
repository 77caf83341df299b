// Package txtplot renders small ASCII charts for terminal output: the
// experiment CLI uses it to sketch the paper's figures (bar groups for
// Figures 6 and 9, a time series for Figure 1) next to the numeric tables.
package txtplot

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// GroupedBars renders, for every label, one bar per series — the shape of
// Figure 6's grouped columns. Series render in the given order.
func GroupedBars(w io.Writer, title string, labels []string,
	series map[string][]float64, order []string, width int) error {
	if width <= 0 {
		width = 40
	}
	maxAbs := 0.0
	seriesW := 0
	for _, name := range order {
		vs, ok := series[name]
		if !ok {
			return fmt.Errorf("txtplot: missing series %q", name)
		}
		if len(vs) != len(labels) {
			return fmt.Errorf("txtplot: series %q has %d values for %d labels", name, len(vs), len(labels))
		}
		for _, v := range vs {
			if a := math.Abs(v); a > maxAbs {
				maxAbs = a
			}
		}
		if len(name) > seriesW {
			seriesW = len(name)
		}
	}
	if title != "" {
		if _, err := fmt.Fprintln(w, title); err != nil {
			return err
		}
	}
	for li, label := range labels {
		if _, err := fmt.Fprintf(w, "%s\n", label); err != nil {
			return err
		}
		for _, name := range order {
			v := series[name][li]
			n := 0
			if maxAbs > 0 {
				n = int(math.Round(math.Abs(v) / maxAbs * float64(width)))
			}
			sign := ""
			if v < 0 {
				sign = "-"
			}
			if _, err := fmt.Fprintf(w, "  %-*s | %s%s %.2f\n",
				seriesW, name, sign, strings.Repeat("#", n), v); err != nil {
				return err
			}
		}
	}
	return nil
}

// Series renders a y-over-x time series as a fixed-size dot matrix,
// averaging samples that fall into the same column. Marks rows with the
// min/max y values.
func Series(w io.Writer, title string, xs, ys []float64, width, height int) error {
	if len(xs) != len(ys) {
		return fmt.Errorf("txtplot: %d xs, %d ys", len(xs), len(ys))
	}
	if len(xs) == 0 {
		return fmt.Errorf("txtplot: empty series")
	}
	if width <= 0 {
		width = 60
	}
	if height <= 0 {
		height = 10
	}
	minX, maxX := xs[0], xs[0]
	minY, maxY := ys[0], ys[0]
	for i := range xs {
		minX = math.Min(minX, xs[i])
		maxX = math.Max(maxX, xs[i])
		minY = math.Min(minY, ys[i])
		maxY = math.Max(maxY, ys[i])
	}
	if maxX == minX {
		maxX = minX + 1
	}
	if maxY == minY {
		maxY = minY + 1
	}
	// Average y per column.
	sums := make([]float64, width)
	counts := make([]int, width)
	for i := range xs {
		c := int((xs[i] - minX) / (maxX - minX) * float64(width-1))
		sums[c] += ys[i]
		counts[c]++
	}
	grid := make([][]byte, height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", width))
	}
	for c := 0; c < width; c++ {
		if counts[c] == 0 {
			continue
		}
		y := sums[c] / float64(counts[c])
		r := int((y - minY) / (maxY - minY) * float64(height-1))
		grid[height-1-r][c] = '*'
	}
	if title != "" {
		if _, err := fmt.Fprintln(w, title); err != nil {
			return err
		}
	}
	for r, row := range grid {
		mark := ""
		if r == 0 {
			mark = fmt.Sprintf(" %.4g", maxY)
		} else if r == height-1 {
			mark = fmt.Sprintf(" %.4g", minY)
		}
		if _, err := fmt.Fprintf(w, "|%s|%s\n", string(row), mark); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "x: %.4g .. %.4g\n", minX, maxX)
	return err
}
