package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

var update = flag.Bool("update", false, "rewrite results/ from the current build")

// resultsDir holds the committed artifacts EXPERIMENTS.md quotes.
var resultsDir = filepath.Join("..", "..", "results")

// resultsCSV are the files -csv writes under -exp all; the rendered
// output is eaexp_full.txt.
var resultsCSV = []string{"fig5.csv", "fig6.csv", "fig7.csv", "fig8.csv", "fig9.csv", "table1.csv"}

// TestResults rebuilds results/ with the command EXPERIMENTS.md quotes,
// `eaexp -exp all -replications 40 -csv results`, and compares every
// file byte for byte: the committed numbers are what the code computes
// today, and a change that moves one result byte has to say so by
// rewriting them with -update.
func TestResults(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	if err := run([]string{"-exp", "all", "-replications", "40", "-csv", dir, "-quiet"}, &out); err != nil {
		t.Fatal(err)
	}
	got := map[string][]byte{"eaexp_full.txt": out.Bytes()}
	for _, name := range resultsCSV {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		got[name] = b
	}

	if *update {
		for name, b := range got {
			if err := os.WriteFile(filepath.Join(resultsDir, name), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		return
	}

	committed, err := filepath.Glob(filepath.Join(resultsDir, "*"))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, path := range committed {
		names = append(names, filepath.Base(path))
	}
	want := append([]string{"eaexp_full.txt"}, resultsCSV...)
	slices.Sort(want)
	if !slices.Equal(names, want) {
		t.Fatalf("results/ holds %v, want exactly %v", names, want)
	}
	for _, name := range want {
		b, err := os.ReadFile(filepath.Join(resultsDir, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got[name], b) {
			t.Errorf("results/%s differs from a fresh run in %d of its %d lines (rerun with -update if the change is intended)",
				name, diffLines(got[name], b), bytes.Count(b, []byte("\n")))
		}
	}
}

// diffLines counts the lines at which a and b differ, position by
// position; a length difference counts every unmatched line.
func diffLines(a, b []byte) int {
	la, lb := bytes.Split(a, []byte("\n")), bytes.Split(b, []byte("\n"))
	n := max(len(la), len(lb)) - min(len(la), len(lb))
	for i := range min(len(la), len(lb)) {
		if !bytes.Equal(la[i], lb[i]) {
			n++
		}
	}
	return n
}
