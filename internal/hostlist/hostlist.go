// Package hostlist implements SLURM-style hostlist expressions.
//
// A hostlist expression is a compact notation for a set of host names that
// share a common prefix, e.g. "n[0-3]" for n0,n1,n2,n3 or
// "node[001-003,007]" for node001,node002,node003,node007. Comma-separated
// expressions may be combined: "a[1-2],b5". SLURM's topology.conf uses these
// expressions to list the nodes (or child switches) attached to a switch,
// so this package underpins the topology parser.
package hostlist

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"
	"strings"
)

// Expand parses a hostlist expression and returns the individual host names
// in the order they appear in the expression.
//
// Supported grammar (a subset of SLURM's, sufficient for topology.conf):
//
//	expr     := item ("," item)*
//	item     := name | prefix "[" ranges "]" suffix?
//	ranges   := range ("," range)*
//	range    := number | number "-" number
//
// Numbers may be zero-padded; the padding width of the lower bound is
// preserved in the generated names (as SLURM does).
func Expand(expr string) ([]string, error) {
	if strings.TrimSpace(expr) == "" {
		return nil, nil
	}
	var out []string
	items, err := splitTop(expr)
	if err != nil {
		return nil, err
	}
	for _, item := range items {
		names, err := expandItem(item)
		if err != nil {
			return nil, err
		}
		out = append(out, names...)
	}
	return out, nil
}

// Count returns the number of hosts an expression expands to without
// materialising the full list.
func Count(expr string) (int, error) {
	if strings.TrimSpace(expr) == "" {
		return 0, nil
	}
	items, err := splitTop(expr)
	if err != nil {
		return 0, err
	}
	total := 0
	for _, item := range items {
		open := strings.IndexByte(item, '[')
		if open < 0 {
			if item == "" {
				return 0, fmt.Errorf("hostlist: empty item in %q", item)
			}
			total++
			continue
		}
		closeIdx := strings.IndexByte(item, ']')
		if closeIdx < open {
			return 0, fmt.Errorf("hostlist: unbalanced brackets in %q", item)
		}
		if strings.ContainsAny(item[closeIdx+1:], "[]") {
			return 0, fmt.Errorf("hostlist: multiple bracket groups in %q", item)
		}
		ranges := item[open+1 : closeIdx]
		for _, r := range strings.Split(ranges, ",") {
			lo, hi, _, err := parseRange(r)
			if err != nil {
				return 0, err
			}
			total += hi - lo + 1
		}
	}
	return total, nil
}

// splitTop splits a hostlist expression on commas that are not inside
// brackets.
func splitTop(expr string) ([]string, error) {
	var items []string
	depth := 0
	start := 0
	for i := 0; i < len(expr); i++ {
		switch expr[i] {
		case '[':
			depth++
			if depth > 1 {
				return nil, fmt.Errorf("hostlist: nested brackets in %q", expr)
			}
		case ']':
			depth--
			if depth < 0 {
				return nil, fmt.Errorf("hostlist: unbalanced brackets in %q", expr)
			}
		case ',':
			if depth == 0 {
				items = append(items, strings.TrimSpace(expr[start:i]))
				start = i + 1
			}
		}
	}
	if depth != 0 {
		return nil, fmt.Errorf("hostlist: unbalanced brackets in %q", expr)
	}
	items = append(items, strings.TrimSpace(expr[start:]))
	return items, nil
}

func expandItem(item string) ([]string, error) {
	if item == "" {
		return nil, fmt.Errorf("hostlist: empty item")
	}
	open := strings.IndexByte(item, '[')
	if open < 0 {
		return []string{item}, nil
	}
	closeIdx := strings.IndexByte(item, ']')
	if closeIdx < open {
		return nil, fmt.Errorf("hostlist: unbalanced brackets in %q", item)
	}
	prefix := item[:open]
	suffix := item[closeIdx+1:]
	if strings.ContainsAny(suffix, "[]") {
		return nil, fmt.Errorf("hostlist: multiple bracket groups in %q", item)
	}
	ranges := item[open+1 : closeIdx]
	if ranges == "" {
		return nil, fmt.Errorf("hostlist: empty range in %q", item)
	}
	var out []string
	for _, r := range strings.Split(ranges, ",") {
		lo, hi, width, err := parseRange(r)
		if err != nil {
			return nil, fmt.Errorf("hostlist: %v in %q", err, item)
		}
		for v := lo; ; v++ { // v <= hi would never fail at the largest int
			out = append(out, fmt.Sprintf("%s%0*d%s", prefix, width, v, suffix))
			if v == hi {
				break
			}
		}
	}
	return out, nil
}

// parseRange parses "3" or "3-7", returning lo, hi and the zero-padding
// width of the lower bound.
func parseRange(r string) (lo, hi, width int, err error) {
	r = strings.TrimSpace(r)
	dash := strings.IndexByte(r, '-')
	loStr, hiStr := r, r
	if dash >= 0 {
		loStr, hiStr = r[:dash], r[dash+1:]
	}
	lo, err = strconv.Atoi(loStr)
	if err != nil {
		return 0, 0, 0, fmt.Errorf("bad range bound %q", loStr)
	}
	hi, err = strconv.Atoi(hiStr)
	if err != nil {
		return 0, 0, 0, fmt.Errorf("bad range bound %q", hiStr)
	}
	if hi < lo {
		return 0, 0, 0, fmt.Errorf("descending range %q", r)
	}
	width = 1
	if len(loStr) > 1 && loStr[0] == '0' {
		width = len(loStr)
	}
	return lo, hi, width, nil
}

// Compress renders a set of host names as a compact hostlist expression.
// Names sharing a prefix with a trailing integer are folded into bracket
// ranges; everything else is emitted verbatim. The output lists prefixes in
// sorted order, numbers ascending by (value, width) and the verbatim names
// sorted after them, so it depends only on the set, not on its order.
func Compress(names []string) string {
	ids := make([]int, len(names))
	for i := range ids {
		ids[i] = i
	}
	return string(NewTable(names).Append(nil, ids))
}

// Table is an immutable index of host names by ID (a name's position in the
// list it was built from), split once into what Compress needs: the rank of
// each name's prefix among the distinct prefixes, its trailing number and
// the number's width, and its place in the rendering order. Append renders
// any set of IDs without building a name.
type Table struct {
	names    []string
	prefixes []string // distinct prefixes of numbered names, sorted
	group    []int32  // by ID: prefix rank, or -1 for a name emitted verbatim
	value    []int    // by ID: the trailing number
	width    []int32  // by ID: the number's zero-padded width (1 if unpadded)
	pos      []int32  // by ID: position in the rendering order
}

// NewTable splits names once. The table keeps names (not a copy); the
// caller must not modify it afterwards.
func NewTable(names []string) *Table {
	n := len(names)
	t := &Table{
		names: names,
		group: make([]int32, n),
		value: make([]int, n),
		width: make([]int32, n),
		pos:   make([]int32, n),
	}
	prefix := make([]string, n)
	for id, name := range names {
		t.group[id] = -1
		p, num := splitTrailingDigits(name)
		v, err := strconv.Atoi(num)
		if num == "" || err != nil { // no number, or one past int range
			continue
		}
		w := 1
		if len(num) > 1 && num[0] == '0' {
			w = len(num)
		}
		t.group[id], t.value[id], t.width[id], prefix[id] = 0, v, int32(w), p
		if len(t.prefixes) == 0 || t.prefixes[len(t.prefixes)-1] != p {
			t.prefixes = append(t.prefixes, p)
		}
	}
	slices.Sort(t.prefixes)
	t.prefixes = slices.Compact(t.prefixes)
	order := make([]int32, n)
	for id := range order {
		order[id] = int32(id)
		if t.group[id] >= 0 {
			r, _ := slices.BinarySearch(t.prefixes, prefix[id])
			t.group[id] = int32(r)
		}
	}
	// Numbered names by (prefix rank, value, width), the verbatim ones after
	// them by name; equal names keep their IDs' order.
	byRender := func(a, b int32) int {
		ga, gb := t.group[a], t.group[b]
		switch {
		case ga < 0 || gb < 0:
			if ga >= 0 || gb >= 0 {
				return cmp.Compare(gb, ga) // the numbered one first
			}
			return strings.Compare(names[a], names[b])
		case ga != gb:
			return cmp.Compare(ga, gb)
		case t.value[a] != t.value[b]:
			return cmp.Compare(t.value[a], t.value[b])
		}
		return cmp.Compare(t.width[a], t.width[b])
	}
	if !slices.IsSortedFunc(order, byRender) { // a machine's names usually are
		slices.SortStableFunc(order, byRender)
	}
	for at, id := range order {
		t.pos[id] = int32(at)
	}
	return t
}

// Append appends the hostlist expression of the named IDs to dst, byte for
// byte what Compress returns for their names, and returns the extended
// buffer. It sorts ids into rendering order in place. ids must be distinct
// and in range.
func (t *Table) Append(dst []byte, ids []int) []byte {
	if !slices.IsSortedFunc(ids, t.cmpPos) {
		slices.SortFunc(ids, t.cmpPos)
	}
	for i := 0; i < len(ids); {
		if i > 0 {
			dst = append(dst, ',')
		}
		g := t.group[ids[i]]
		if g < 0 {
			dst = append(dst, t.names[ids[i]]...)
			i++
			continue
		}
		dst = append(dst, t.prefixes[g]...)
		open := len(dst)
		dst = append(dst, '[')
		ranges, single := 0, false
		for ; i < len(ids) && t.group[ids[i]] == g; ranges++ {
			lo, j := ids[i], i
			for j+1 < len(ids) && t.group[ids[j+1]] == g &&
				t.value[ids[j+1]] == t.value[ids[j]]+1 && t.width[ids[j+1]] == t.width[lo] {
				j++
			}
			if ranges > 0 {
				dst = append(dst, ',')
			}
			dst = appendNum(dst, t.value[lo], t.width[lo])
			if single = j == i; !single {
				dst = append(dst, '-')
				dst = appendNum(dst, t.value[ids[j]], t.width[lo])
			}
			i = j + 1
		}
		if ranges == 1 && single { // a lone name needs no brackets
			dst = append(dst[:open], dst[open+1:]...)
		} else {
			dst = append(dst, ']')
		}
	}
	return dst
}

func (t *Table) cmpPos(a, b int) int { return cmp.Compare(t.pos[a], t.pos[b]) }

// appendNum appends v zero-padded to width w.
func appendNum(dst []byte, v int, w int32) []byte {
	digits := int32(1)
	for x := v; x >= 10; x /= 10 {
		digits++
	}
	for ; digits < w; digits++ {
		dst = append(dst, '0')
	}
	return strconv.AppendInt(dst, int64(v), 10)
}

func splitTrailingDigits(s string) (prefix, digits string) {
	i := len(s)
	for i > 0 && s[i-1] >= '0' && s[i-1] <= '9' {
		i--
	}
	return s[:i], s[i:]
}
