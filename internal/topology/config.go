package topology

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/hostlist"
)

// ParseConfig reads a SLURM topology.conf. Each non-comment line describes
// one switch:
//
//	SwitchName=s0 Nodes=n[0-3]
//	SwitchName=s2 Switches=s[0-1]
//
// Keys are case-insensitive, as in SLURM. A switch may list either Nodes
// (making it a leaf) or Switches (making it internal), not both. The tree
// must have exactly one root.
func ParseConfig(r io.Reader) (*Topology, error) {
	type rawSwitch struct {
		name     string
		nodes    []string
		children []string
		line     int
	}
	var raws []rawSwitch
	scanner := bufio.NewScanner(r)
	scanner.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	lineNo := 0
	for scanner.Scan() {
		lineNo++
		line := strings.TrimSpace(scanner.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		rs := rawSwitch{line: lineNo}
		for _, field := range strings.Fields(line) {
			eq := strings.IndexByte(field, '=')
			if eq < 0 {
				return nil, fmt.Errorf("topology.conf:%d: malformed field %q", lineNo, field)
			}
			key, val := strings.ToLower(field[:eq]), field[eq+1:]
			switch key {
			case "switchname":
				rs.name = val
			case "nodes":
				names, err := hostlist.Expand(val)
				if err != nil {
					return nil, fmt.Errorf("topology.conf:%d: %v", lineNo, err)
				}
				rs.nodes = names
			case "switches":
				names, err := hostlist.Expand(val)
				if err != nil {
					return nil, fmt.Errorf("topology.conf:%d: %v", lineNo, err)
				}
				rs.children = names
			case "linkspeed":
				// Accepted and ignored, as in SLURM.
			default:
				return nil, fmt.Errorf("topology.conf:%d: unknown key %q", lineNo, key)
			}
		}
		if rs.name == "" {
			return nil, fmt.Errorf("topology.conf:%d: missing SwitchName", lineNo)
		}
		if len(rs.nodes) > 0 && len(rs.children) > 0 {
			return nil, fmt.Errorf("topology.conf:%d: switch %q has both Nodes and Switches", lineNo, rs.name)
		}
		if len(rs.nodes) == 0 && len(rs.children) == 0 {
			return nil, fmt.Errorf("topology.conf:%d: switch %q has neither Nodes nor Switches", lineNo, rs.name)
		}
		raws = append(raws, rs)
	}
	if err := scanner.Err(); err != nil {
		return nil, err
	}
	if len(raws) == 0 {
		return nil, fmt.Errorf("topology.conf: empty configuration")
	}

	switches := make(map[string]*Switch, len(raws))
	for _, rs := range raws {
		if _, dup := switches[rs.name]; dup {
			return nil, fmt.Errorf("topology.conf:%d: duplicate switch %q", rs.line, rs.name)
		}
		switches[rs.name] = &Switch{Name: rs.name}
	}

	var nodeOrder []string
	var leaves []*Switch
	nodeSeen := make(map[string]int) // node name -> its leaf's index
	for _, rs := range raws {
		s := switches[rs.name]
		if len(rs.nodes) > 0 {
			leafIdx := len(leaves)
			leaves = append(leaves, s)
			for _, nn := range rs.nodes {
				if prev, dup := nodeSeen[nn]; dup {
					return nil, fmt.Errorf("topology.conf:%d: node %q already attached to %q",
						rs.line, nn, leaves[prev].Name)
				}
				nodeSeen[nn] = leafIdx
				s.NodeIDs = append(s.NodeIDs, len(nodeOrder))
				nodeOrder = append(nodeOrder, nn)
			}
			continue
		}
		for _, cn := range rs.children {
			child, ok := switches[cn]
			if !ok {
				return nil, fmt.Errorf("topology.conf:%d: switch %q references unknown switch %q",
					rs.line, rs.name, cn)
			}
			if child.Parent != nil {
				return nil, fmt.Errorf("topology.conf:%d: switch %q already has parent %q",
					rs.line, cn, child.Parent.Name)
			}
			if child == s {
				return nil, fmt.Errorf("topology.conf:%d: switch %q is its own child", rs.line, cn)
			}
			child.Parent = s
			s.Children = append(s.Children, child)
		}
	}

	var root *Switch
	for _, rs := range raws {
		s := switches[rs.name]
		if s.Parent == nil {
			if root != nil {
				return nil, fmt.Errorf("topology.conf: multiple roots (%q and %q)", root.Name, s.Name)
			}
			root = s
		}
	}
	if root == nil {
		return nil, fmt.Errorf("topology.conf: no root switch (cycle?)")
	}
	// Reject cycles below the root: every switch must be reachable from it.
	reach := 0
	var count func(*Switch)
	count = func(s *Switch) {
		reach++
		for _, c := range s.Children {
			count(c)
		}
	}
	count(root)
	if reach != len(switches) {
		return nil, fmt.Errorf("topology.conf: %d of %d switches unreachable from root %q",
			len(switches)-reach, len(switches), root.Name)
	}
	return build(root, leaves, nodeOrder)
}

// LoadConfig parses a topology.conf file from disk.
func LoadConfig(path string) (*Topology, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ParseConfig(f)
}

// WriteConfig renders the topology in SLURM topology.conf syntax, leaves
// first, then internal switches by ascending level. Node and switch lists
// are compressed into hostlist expressions.
func (t *Topology) WriteConfig(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, s := range t.Switches {
		if !s.IsLeaf() {
			continue
		}
		names := make([]string, len(s.NodeIDs))
		for i, id := range s.NodeIDs {
			names[i] = t.NodeName(id)
		}
		fmt.Fprintf(bw, "SwitchName=%s Nodes=%s\n", s.Name, hostlist.Compress(names))
	}
	for _, s := range t.Switches {
		if s.IsLeaf() {
			continue
		}
		names := make([]string, len(s.Children))
		for i, c := range s.Children {
			names[i] = c.Name
		}
		fmt.Fprintf(bw, "SwitchName=%s Switches=%s\n", s.Name, hostlist.Compress(names))
	}
	return bw.Flush()
}
