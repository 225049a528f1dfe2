package gio

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzLoadEdgeList: arbitrary text must either parse into a valid graph or
// return an error — never panic, never produce a graph that fails
// Validate.
func FuzzLoadEdgeList(f *testing.F) {
	f.Add("0 1\n1 2\n")
	f.Add("# comment\n5 6 3\n")
	f.Add("")
	f.Add("x y\n")
	f.Add("18446744073709551615 0\n")
	f.Add("1 2 -5\n0 0\n")
	f.Fuzz(func(t *testing.T, src string) {
		g, err := LoadEdgeList(strings.NewReader(src), false, "fuzz")
		if err != nil {
			return
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("parsed graph invalid: %v", err)
		}
		gu, err := LoadEdgeList(strings.NewReader(src), true, "fuzz-undir")
		if err == nil {
			if err := gu.Validate(); err != nil {
				t.Fatalf("undirected parse invalid: %v", err)
			}
		}
		// The lenient path must hold the same invariant: whatever survives
		// the error budget validates, and the report stays consistent.
		gl, rep, err := LoadEdgeListWithReport(strings.NewReader(src), "fuzz-lenient",
			EdgeListOptions{MaxBadLines: 8})
		if err == nil {
			if err := gl.Validate(); err != nil {
				t.Fatalf("lenient parse invalid: %v", err)
			}
			if rep.BadLines > 8 || rep.BadLines > rep.Lines {
				t.Fatalf("inconsistent report: %+v", rep)
			}
			if (rep.BadLines == 0) != (rep.FirstBad == "") {
				t.Fatalf("FirstBad out of sync with BadLines: %+v", rep)
			}
		}
	})
}

// FuzzLoadBinary: arbitrary bytes must never panic the binary loader, and
// anything that loads must validate.
func FuzzLoadBinary(f *testing.F) {
	// Seed with a real file.
	var buf bytes.Buffer
	g, err := LoadEdgeList(strings.NewReader("0 1\n1 2\n2 0\n"), false, "seed")
	if err != nil {
		f.Fatal(err)
	}
	if err := StoreBinary(&buf, g); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte("OMGA"))
	f.Add([]byte{})
	f.Add(binaryHeader(1<<24, 1<<24))
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := LoadBinary(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("loaded graph invalid: %v", err)
		}
	})
}
