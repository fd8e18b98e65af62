package main

import (
	"bytes"
	"flag"
	"os"
	"strings"
	"testing"

	"ghostdb/internal/experiments"
)

var update = flag.Bool("update", false, "rewrite "+figuresGolden+" from this build")

// figuresGolden is the output of `ghostdb-bench -exp all -scale 0.002
// -seed 1`. Every number in it is simulated time, a page count or a
// seeded rate, so it is the same on every machine.
const figuresGolden = "testdata/figures_0.002.txt"

// TestFiguresPinned regenerates every table and figure at scale 0.002 and
// requires the committed output byte for byte: a change that moves a
// figure must say so by regenerating the file with -update.
func TestFiguresPinned(t *testing.T) {
	var got bytes.Buffer
	if err := dispatch(&got, experiments.NewLab(0.002, 1), "all"); err != nil {
		t.Fatal(err)
	}
	if *update {
		if err := os.WriteFile(figuresGolden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(figuresGolden)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	g, w := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < max(len(g), len(w)); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			t.Fatalf("%s line %d:\n got: %q\nwant: %q\n(go test ./cmd/ghostdb-bench -run TestFiguresPinned -update rewrites the file)",
				figuresGolden, i+1, gl, wl)
		}
	}
}
