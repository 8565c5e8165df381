package roadnet

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"netclus/internal/geo"
)

// Binary serialization of road networks.
//
// Format (little endian):
//
//	magic   uint32  'N''C''G''1'
//	nodes   uint32
//	edges   uint32
//	nodes × { x float64, y float64 }
//	edges × { from uint32, to uint32, w float64 }
//
// The format is deliberately simple and versioned through the magic so that
// datasets written by cmd/topsgen remain loadable.

const graphMagic uint32 = 0x4e434731 // "NCG1"

// maxPrealloc caps the node capacity ReadGraph reserves before reading the
// nodes; a larger graph grows by append.
const maxPrealloc = 1 << 12

// WriteTo serializes g. It returns the byte count written.
func (g *Graph) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	var n int64
	put := func(v any) error {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return err
		}
		n += int64(binary.Size(v))
		return nil
	}
	if err := put(graphMagic); err != nil {
		return n, err
	}
	if err := put(uint32(g.NumNodes())); err != nil {
		return n, err
	}
	if err := put(uint32(g.NumEdges())); err != nil {
		return n, err
	}
	for _, p := range g.pts {
		if err := put(p.X); err != nil {
			return n, err
		}
		if err := put(p.Y); err != nil {
			return n, err
		}
	}
	for from := range g.out {
		for _, e := range g.out[from] {
			if err := put(uint32(from)); err != nil {
				return n, err
			}
			if err := put(uint32(e.to)); err != nil {
				return n, err
			}
			if err := put(e.w); err != nil {
				return n, err
			}
		}
	}
	return n, bw.Flush()
}

// ReadGraph deserializes a graph written by WriteTo.
func ReadGraph(r io.Reader) (*Graph, error) {
	br := bufio.NewReader(r)
	var magic, nNodes, nEdges uint32
	if err := binary.Read(br, binary.LittleEndian, &magic); err != nil {
		return nil, fmt.Errorf("roadnet: reading magic: %w", err)
	}
	if magic != graphMagic {
		return nil, fmt.Errorf("roadnet: bad magic %#x", magic)
	}
	if err := binary.Read(br, binary.LittleEndian, &nNodes); err != nil {
		return nil, fmt.Errorf("roadnet: reading node count: %w", err)
	}
	if err := binary.Read(br, binary.LittleEndian, &nEdges); err != nil {
		return nil, fmt.Errorf("roadnet: reading edge count: %w", err)
	}
	const maxReasonable = 1 << 28
	if nNodes > maxReasonable || nEdges > maxReasonable {
		return nil, fmt.Errorf("roadnet: implausible sizes nodes=%d edges=%d", nNodes, nEdges)
	}
	g := New(min(int(nNodes), maxPrealloc))
	for i := uint32(0); i < nNodes; i++ {
		var x, y float64
		if err := binary.Read(br, binary.LittleEndian, &x); err != nil {
			return nil, fmt.Errorf("roadnet: node %d: %w", i, err)
		}
		if err := binary.Read(br, binary.LittleEndian, &y); err != nil {
			return nil, fmt.Errorf("roadnet: node %d: %w", i, err)
		}
		if !finitePoint(x, y) {
			return nil, fmt.Errorf("roadnet: node %d has non-finite coordinate (%v, %v)", i, x, y)
		}
		g.AddNode(geo.Point{X: x, Y: y})
	}
	for i := uint32(0); i < nEdges; i++ {
		var from, to uint32
		var w float64
		if err := binary.Read(br, binary.LittleEndian, &from); err != nil {
			return nil, fmt.Errorf("roadnet: edge %d: %w", i, err)
		}
		if err := binary.Read(br, binary.LittleEndian, &to); err != nil {
			return nil, fmt.Errorf("roadnet: edge %d: %w", i, err)
		}
		if err := binary.Read(br, binary.LittleEndian, &w); err != nil {
			return nil, fmt.Errorf("roadnet: edge %d: %w", i, err)
		}
		if err := g.AddEdge(NodeID(from), NodeID(to), w); err != nil {
			return nil, fmt.Errorf("roadnet: edge %d: %w", i, err)
		}
	}
	return g, nil
}
