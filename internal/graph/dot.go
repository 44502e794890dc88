package graph

import (
	"fmt"
	"io"
	"strings"
)

// DOTOptions configure WriteDOT.
type DOTOptions struct {
	// Name is the graph name in the DOT header (default "G").
	Name string
	// NodeLabel, when set, overrides the displayed label of a vertex.
	NodeLabel func(NodeID) string
	// NodeAttr, when set, returns extra DOT attributes for a vertex
	// (e.g. `shape=box, style=filled`).
	NodeAttr func(NodeID) string
	// ShowPorts annotates each edge end with its local port label
	// (taillabel/headlabel), which is how the paper draws Figure 1.
	ShowPorts bool
}

// WriteDOT renders the graph in Graphviz DOT format. Port labels — the
// object the paper's lower bound is about — can be drawn on the edge
// ends with ShowPorts.
func (g *Graph) WriteDOT(w io.Writer, opt DOTOptions) error {
	name := opt.Name
	if name == "" {
		name = "G"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "graph %s {\n", name)
	b.WriteString("  node [shape=circle];\n")
	for u := 0; u < g.Order(); u++ {
		label := fmt.Sprintf("%d", u)
		if opt.NodeLabel != nil {
			label = opt.NodeLabel(NodeID(u))
		}
		attr := ""
		if opt.NodeAttr != nil {
			if a := opt.NodeAttr(NodeID(u)); a != "" {
				attr = ", " + a
			}
		}
		fmt.Fprintf(&b, "  n%d [label=\"%s\"%s];\n", u, label, attr)
	}
	for u := 0; u < g.Order(); u++ {
		for i, v := range g.Arcs(NodeID(u)) {
			if NodeID(u) > v {
				continue // each edge once
			}
			if opt.ShowPorts {
				p := Port(i + 1)
				fmt.Fprintf(&b, "  n%d -- n%d [taillabel=\"%d\", headlabel=\"%d\"];\n",
					u, v, p, g.BackPort(NodeID(u), p))
			} else {
				fmt.Fprintf(&b, "  n%d -- n%d;\n", u, v)
			}
		}
	}
	b.WriteString("}\n")
	_, err := io.WriteString(w, b.String())
	return err
}
