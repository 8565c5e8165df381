package roadnet

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"netclus/internal/geo"
)

// Plain-text road-network ingestion. Real deployments start from exported
// OpenStreetMap extracts; this loader accepts the common minimal edge-list
// shape those exports reduce to:
//
//	# comment lines and blank lines are ignored
//	N <id> <x-km> <y-km>          node declaration (ids dense from 0)
//	E <from> <to> <weight-km>     directed edge
//	B <a> <b> <weight-km>         two-way street (both directions)
//
// Nodes must be declared before edges reference them. The companion
// WriteText emits the same format, so networks round-trip through version
// control and external tooling.

// ReadText parses the text edge-list format.
func ReadText(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	g := New(0)
	nextNode := NodeID(0)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "N":
			if len(fields) != 4 {
				return nil, fmt.Errorf("roadnet: line %d: N wants 3 arguments", lineNo)
			}
			id, err := parseNodeID(fields[1])
			if err != nil || id != nextNode {
				return nil, fmt.Errorf("roadnet: line %d: node ids must be dense from 0 (got %q, want %d)", lineNo, fields[1], nextNode)
			}
			x, err := strconv.ParseFloat(fields[2], 64)
			if err != nil {
				return nil, fmt.Errorf("roadnet: line %d: bad x: %v", lineNo, err)
			}
			y, err := strconv.ParseFloat(fields[3], 64)
			if err != nil {
				return nil, fmt.Errorf("roadnet: line %d: bad y: %v", lineNo, err)
			}
			if !finitePoint(x, y) {
				return nil, fmt.Errorf("roadnet: line %d: node %d has non-finite coordinate (%v, %v)", lineNo, id, x, y)
			}
			g.AddNode(geo.Point{X: x, Y: y})
			nextNode++
		case "E", "B":
			if len(fields) != 4 {
				return nil, fmt.Errorf("roadnet: line %d: %s wants 3 arguments", lineNo, fields[0])
			}
			u, err := parseNodeID(fields[1])
			if err != nil {
				return nil, fmt.Errorf("roadnet: line %d: bad from: %v", lineNo, err)
			}
			v, err := parseNodeID(fields[2])
			if err != nil {
				return nil, fmt.Errorf("roadnet: line %d: bad to: %v", lineNo, err)
			}
			w, err := strconv.ParseFloat(fields[3], 64)
			if err != nil {
				return nil, fmt.Errorf("roadnet: line %d: bad weight: %v", lineNo, err)
			}
			if fields[0] == "E" {
				err = g.AddEdge(u, v, w)
			} else {
				err = g.AddBidirectional(u, v, w)
			}
			if err != nil {
				return nil, fmt.Errorf("roadnet: line %d: %w", lineNo, err)
			}
		default:
			return nil, fmt.Errorf("roadnet: line %d: unknown record %q", lineNo, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("roadnet: %w", err)
	}
	if g.NumNodes() == 0 {
		return nil, fmt.Errorf("roadnet: no nodes in input")
	}
	return g, nil
}

// parseNodeID parses a decimal node id, refusing one NodeID cannot hold
// instead of letting it wrap onto another node.
func parseNodeID(s string) (NodeID, error) {
	id, err := strconv.ParseInt(s, 10, 32)
	return NodeID(id), err
}

// WriteText emits the text edge-list format. Two-way streets are written
// as two E records (the loader's B form is an input convenience only).
func (g *Graph) WriteText(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# netclus road network: %d nodes, %d directed edges\n", g.NumNodes(), g.NumEdges())
	for v := 0; v < g.NumNodes(); v++ {
		p := g.Point(NodeID(v))
		fmt.Fprintf(bw, "N %d %g %g\n", v, p.X, p.Y)
	}
	for v := 0; v < g.NumNodes(); v++ {
		g.Neighbors(NodeID(v), func(to NodeID, weight float64) bool {
			fmt.Fprintf(bw, "E %d %d %g\n", v, to, weight)
			return true
		})
	}
	return bw.Flush()
}
