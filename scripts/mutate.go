//go:build ignore

// Command mutate reads the mutant list of scripts/mutants.sh and applies
// one mutant to a copy of the tree, or checks that every mutant still
// applies.
//
//	go run scripts/mutate.go -list scripts/mutants.txt            # id, file, equivalent?
//	go run scripts/mutate.go -list scripts/mutants.txt -check .   # every old text found once
//	go run scripts/mutate.go -list scripts/mutants.txt -apply ID DIR
//
// An entry starts with "[id]" and has the lines "file:", "old:" and "new:"
// (Go string literals, so "\n" and "\t" span lines), "why:" and, for a
// mutant no test can tell from the original, "equivalent:" with the
// reason. Lines starting with "#" are comments. An entry whose old text is
// not found exactly once in its file is stale: the code moved, and the
// mutant must be re-expressed against it.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

type mutant struct {
	id, file, old, new, why, equivalent string
}

func parse(path string) ([]mutant, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []mutant
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if strings.HasPrefix(line, "[") && strings.HasSuffix(line, "]") {
			out = append(out, mutant{id: line[1 : len(line)-1]})
			continue
		}
		key, val, ok := strings.Cut(line, ":")
		if !ok || len(out) == 0 {
			return nil, fmt.Errorf("%s:%d: want \"[id]\" or \"key: value\", got %q", path, n, line)
		}
		m := &out[len(out)-1]
		val = strings.TrimSpace(val)
		switch key {
		case "file":
			m.file = val
		case "old", "new":
			s, err := strconv.Unquote(val)
			if err != nil {
				return nil, fmt.Errorf("%s:%d: %s is not a Go string literal: %v", path, n, key, err)
			}
			if key == "old" {
				m.old = s
			} else {
				m.new = s
			}
		case "why":
			m.why = val
		case "equivalent":
			m.equivalent = val
		default:
			return nil, fmt.Errorf("%s:%d: unknown key %q", path, n, key)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	seen := map[string]bool{}
	for _, m := range out {
		if m.file == "" || m.old == "" || m.old == m.new || m.why == "" || seen[m.id] {
			return nil, fmt.Errorf("%s: entry [%s] needs a unique id, file, old, a different new, and why", path, m.id)
		}
		seen[m.id] = true
	}
	return out, nil
}

// mutated returns the file under dir with m applied.
func mutated(dir string, m mutant) ([]byte, error) {
	src, err := os.ReadFile(filepath.Join(dir, m.file))
	if err != nil {
		return nil, err
	}
	if n := strings.Count(string(src), m.old); n != 1 {
		return nil, fmt.Errorf("stale mutant [%s]: its old text occurs %d times in %s", m.id, n, m.file)
	}
	return []byte(strings.Replace(string(src), m.old, m.new, 1)), nil
}

func main() {
	list := flag.String("list", "scripts/mutants.txt", "the mutant list")
	check := flag.String("check", "", "check every mutant against the tree at this directory")
	apply := flag.String("apply", "", "apply the mutant with this id to the tree named by the argument")
	flag.Parse()
	ms, err := parse(*list)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	switch {
	case *check != "":
		bad := 0
		for _, m := range ms {
			if _, err := mutated(*check, m); err != nil {
				fmt.Fprintln(os.Stderr, err)
				bad++
			}
		}
		if bad > 0 {
			os.Exit(1)
		}
	case *apply != "":
		if flag.NArg() != 1 {
			fmt.Fprintln(os.Stderr, "mutate: -apply ID DIR")
			os.Exit(2)
		}
		for _, m := range ms {
			if m.id != *apply {
				continue
			}
			src, err := mutated(flag.Arg(0), m)
			if err == nil {
				err = os.WriteFile(filepath.Join(flag.Arg(0), m.file), src, 0o644)
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			return
		}
		fmt.Fprintf(os.Stderr, "mutate: no mutant [%s]\n", *apply)
		os.Exit(2)
	default:
		for _, m := range ms {
			eq := "-"
			if m.equivalent != "" {
				eq = "equivalent"
			}
			fmt.Printf("%s\t%s\t%s\n", m.id, m.file, eq)
		}
	}
}
