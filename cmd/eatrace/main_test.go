package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestGoldens pins eatrace's output for the paper's worked examples byte
// for byte: the chart with the activity table and decision audit, and the
// segment CSV, under LSA and EA-DVFS.
func TestGoldens(t *testing.T) {
	for _, scenario := range []string{"fig1", "fig3"} {
		for _, policy := range []string{"lsa", "ea-dvfs"} {
			for _, form := range []struct {
				suffix string
				flags  []string
			}{
				{"audit", []string{"-activity", "-audit"}},
				{"csv", []string{"-csv"}},
			} {
				name := scenario + "-" + policy + "-" + form.suffix
				t.Run(name, func(t *testing.T) {
					var out bytes.Buffer
					args := append([]string{"-scenario", scenario, "-policy", policy}, form.flags...)
					if err := run(args, &out); err != nil {
						t.Fatal(err)
					}
					want, err := os.ReadFile(filepath.Join("testdata", name+".golden"))
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(out.Bytes(), want) {
						t.Fatalf("output drifted from testdata/%s.golden:\n--- got\n%s--- want\n%s", name, out.Bytes(), want)
					}
				})
			}
		}
	}
}

// TestRandomScenario: the random scenario lowers a replication into a run
// document and renders it; an unknown scenario or policy is a named error.
func TestRandomScenario(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-scenario", "random", "-horizon", "100"}, &out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(out.Bytes(), []byte("scenario random under ea-dvfs")) {
		t.Fatalf("unexpected output:\n%s", out.String())
	}
	for _, args := range [][]string{{"-scenario", "fig9"}, {"-policy", "nope"}} {
		if err := run(args, &out); err == nil {
			t.Errorf("%v accepted", args)
		}
	}
}
