// Package gio loads and stores graphs: SNAP-style whitespace edge lists
// (the format of the paper's soc-Slashdot/ca-AstroPh/roadNet datasets) and
// a compact binary CSR format for fast reload of generated datasets.
package gio

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"strconv"
	"strings"

	"omega/internal/graph"
)

// EdgeListOptions configures LoadEdgeListWithReport.
type EdgeListOptions struct {
	// Undirected stores each listed edge in both directions.
	Undirected bool
	// MaxBadLines is the error budget: up to this many malformed lines
	// are skipped (and counted) before the load fails. 0 is strict —
	// the first malformed line is an error.
	MaxBadLines int
}

// EdgeListReport describes what a lenient load skipped.
type EdgeListReport struct {
	// Lines is the number of data lines seen (comments/blanks excluded).
	Lines int
	// BadLines is how many malformed lines were skipped.
	BadLines int
	// FirstBad describes the first malformed line (empty when BadLines
	// is 0) — enough to locate the corruption without failing the run.
	FirstBad string
}

// LoadEdgeList reads a SNAP-style edge list: one "src dst [weight]" per
// line, '#' or '%' comment lines ignored, vertices identified by arbitrary
// non-negative integers (densified to [0,n)). If undirected is true, each
// listed edge is stored in both directions. Any malformed line is an
// error; use LoadEdgeListWithReport for a tolerant load.
func LoadEdgeList(r io.Reader, undirected bool, name string) (*graph.Graph, error) {
	g, _, err := LoadEdgeListWithReport(r, name, EdgeListOptions{Undirected: undirected})
	return g, err
}

// LoadEdgeListWithReport is LoadEdgeList with graceful degradation: up to
// opts.MaxBadLines malformed lines are skipped and counted in the report
// instead of failing the whole load, so a mostly-good dataset with a few
// corrupt lines still runs (the caller decides how much rot to tolerate).
func LoadEdgeListWithReport(r io.Reader, name string, opts EdgeListOptions) (*graph.Graph, EdgeListReport, error) {
	var rep EdgeListReport
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	type rawEdge struct {
		src, dst uint64
		w        int32
	}
	var edges []rawEdge
	idMap := make(map[uint64]graph.VertexID)
	weighted := false
	densify := func(raw uint64) graph.VertexID {
		if id, ok := idMap[raw]; ok {
			return id
		}
		id := graph.VertexID(len(idMap))
		idMap[raw] = id
		return id
	}
	// bad either consumes one unit of the error budget or fails the load.
	bad := func(format string, args ...interface{}) error {
		msg := fmt.Sprintf(format, args...)
		rep.BadLines++
		if rep.FirstBad == "" {
			rep.FirstBad = msg
		}
		if rep.BadLines > opts.MaxBadLines {
			if opts.MaxBadLines > 0 {
				return fmt.Errorf("gio: %s (error budget of %d exhausted)", msg, opts.MaxBadLines)
			}
			return fmt.Errorf("gio: %s", msg)
		}
		return nil
	}
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' || line[0] == '%' {
			continue
		}
		rep.Lines++
		fields := strings.Fields(line)
		if len(fields) < 2 {
			if err := bad("line %d: want 'src dst [w]', got %q", lineNo, line); err != nil {
				return nil, rep, err
			}
			continue
		}
		src, err := strconv.ParseUint(fields[0], 10, 64)
		if err != nil {
			if err := bad("line %d: bad src: %v", lineNo, err); err != nil {
				return nil, rep, err
			}
			continue
		}
		dst, err := strconv.ParseUint(fields[1], 10, 64)
		if err != nil {
			if err := bad("line %d: bad dst: %v", lineNo, err); err != nil {
				return nil, rep, err
			}
			continue
		}
		var w int64 = 1
		if len(fields) >= 3 {
			w, err = strconv.ParseInt(fields[2], 10, 32)
			if err != nil {
				if err := bad("line %d: bad weight: %v", lineNo, err); err != nil {
					return nil, rep, err
				}
				continue
			}
			weighted = true
		}
		edges = append(edges, rawEdge{src, dst, int32(w)})
	}
	if err := sc.Err(); err != nil {
		return nil, rep, fmt.Errorf("gio: scan: %v", err)
	}
	// Densify in first-seen order for determinism.
	for _, e := range edges {
		densify(e.src)
		densify(e.dst)
	}
	b := graph.NewBuilder(len(idMap), opts.Undirected)
	if weighted {
		b.SetWeighted()
	}
	for _, e := range edges {
		b.AddEdge(idMap[e.src], idMap[e.dst], e.w)
	}
	b.Dedup()
	return b.Build(name), rep, nil
}

// Binary CSR format:
//
//	magic "OMGA" | version u32 | flags u32 (1=undirected, 2=weighted)
//	n u64 | m u64
//	OutOffsets [n+1]u64 | OutEdges [m]u32
//	InOffsets  [n+1]u64 | InEdges  [m]u32
//	(weights, if flagged) Weights [m]i32 | InWeights [m]i32
//	name length u32 | name bytes
const (
	binMagic   = "OMGA"
	binVersion = 1

	flagUndirected = 1
	flagWeighted   = 2
)

// StoreBinary writes g in the binary CSR format.
func StoreBinary(w io.Writer, g *graph.Graph) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(binMagic); err != nil {
		return err
	}
	var flags uint32
	if g.Undirected {
		flags |= flagUndirected
	}
	if g.Weighted() {
		flags |= flagWeighted
	}
	hdr := []uint64{uint64(binVersion)<<32 | uint64(flags),
		uint64(g.NumVertices()), uint64(g.NumEdges())}
	for _, v := range hdr {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	for _, s := range [][]uint64{g.OutOffsets, g.InOffsets} {
		if err := binary.Write(bw, binary.LittleEndian, s); err != nil {
			return err
		}
	}
	for _, s := range [][]graph.VertexID{g.OutEdges, g.InEdges} {
		if err := binary.Write(bw, binary.LittleEndian, s); err != nil {
			return err
		}
	}
	if g.Weighted() {
		if err := binary.Write(bw, binary.LittleEndian, g.Weights); err != nil {
			return err
		}
		if err := binary.Write(bw, binary.LittleEndian, g.InWeights); err != nil {
			return err
		}
	}
	nameBytes := []byte(g.Name)
	if err := binary.Write(bw, binary.LittleEndian, uint32(len(nameBytes))); err != nil {
		return err
	}
	if _, err := bw.Write(nameBytes); err != nil {
		return err
	}
	return bw.Flush()
}

// LoadBinary reads a graph stored by StoreBinary.
func LoadBinary(r io.Reader) (*graph.Graph, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, 4)
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("gio: read magic: %v", err)
	}
	if string(magic) != binMagic {
		return nil, fmt.Errorf("gio: bad magic %q", magic)
	}
	var verFlags, n, m uint64
	for _, p := range []*uint64{&verFlags, &n, &m} {
		if err := binary.Read(br, binary.LittleEndian, p); err != nil {
			return nil, fmt.Errorf("gio: read header: %w", err)
		}
	}
	version := uint32(verFlags >> 32)
	flags := uint32(verFlags)
	if version != binVersion {
		return nil, fmt.Errorf("gio: unsupported version %d", version)
	}
	// Vertex IDs are 32-bit. The arrays themselves are read in bounded
	// chunks (readArray), so a header claiming more than the input holds
	// fails after allocating about what the input actually carried.
	const maxCount = 1 << 31
	if n >= maxCount || m >= maxCount {
		return nil, fmt.Errorf("gio: implausible header counts n=%d m=%d", n, m)
	}
	g := &graph.Graph{Undirected: flags&flagUndirected != 0}
	var err error
	if g.OutOffsets, err = readArray[uint64](br, n+1, "out-offsets"); err != nil {
		return nil, err
	}
	if g.InOffsets, err = readArray[uint64](br, n+1, "in-offsets"); err != nil {
		return nil, err
	}
	if g.OutEdges, err = readArray[graph.VertexID](br, m, "out-edges"); err != nil {
		return nil, err
	}
	if g.InEdges, err = readArray[graph.VertexID](br, m, "in-edges"); err != nil {
		return nil, err
	}
	if flags&flagWeighted != 0 {
		if g.Weights, err = readArray[int32](br, m, "weights"); err != nil {
			return nil, err
		}
		if g.InWeights, err = readArray[int32](br, m, "in-weights"); err != nil {
			return nil, err
		}
	}
	var nameLen uint32
	if err := binary.Read(br, binary.LittleEndian, &nameLen); err != nil {
		return nil, fmt.Errorf("gio: read name length: %w", err)
	}
	if nameLen > 4096 {
		return nil, fmt.Errorf("gio: implausible name length %d", nameLen)
	}
	nameBytes := make([]byte, nameLen)
	if _, err := io.ReadFull(br, nameBytes); err != nil {
		return nil, fmt.Errorf("gio: read name: %w", err)
	}
	g.Name = string(nameBytes)
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("gio: loaded graph invalid: %v", err)
	}
	return g, nil
}

// readChunk is how many elements readArray reads per step.
const readChunk = 1 << 13

// readArray reads count little-endian values of T from r, one bounded
// chunk at a time, growing the result geometrically as the data arrives:
// memory follows the bytes actually present, never the count alone. A
// short input fails with an error naming the array (what).
func readArray[T uint64 | uint32 | int32](r io.Reader, count uint64, what string) ([]T, error) {
	s := make([]T, 0, min(count, readChunk))
	for n := uint64(0); n < count; {
		k := min(count-n, readChunk)
		if uint64(cap(s)) < n+k {
			grown := make([]T, n, min(count, max(2*uint64(cap(s)), n+k)))
			copy(grown, s)
			s = grown
		}
		s = s[:n+k]
		if err := binary.Read(r, binary.LittleEndian, s[n:]); err != nil {
			return nil, fmt.Errorf("gio: read %s: %w", what, err)
		}
		n += k
	}
	return s, nil
}
