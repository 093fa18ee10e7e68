package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// manifestDigest runs eaexp with args plus -manifest-out and returns the
// manifest's config_digest.
func manifestDigest(t *testing.T, args ...string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "manifest.json")
	args = append(args, "-replications", "1", "-quiet", "-manifest-out", path)
	if err := run(args, io.Discard); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Digest string `json:"config_digest"`
	}
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	if m.Digest == "" {
		t.Fatalf("manifest %s has no config_digest", b)
	}
	return m.Digest
}

// TestManifestRecordsSweepFlags: the manifest's config digest covers the
// flags that choose a sweep's points, so two runs of -exp slack with
// different -slack-factors (or of -exp sleep with different
// -sleep-presets) are told apart, as robustness runs with different
// -intensities already are.
func TestManifestRecordsSweepFlags(t *testing.T) {
	cases := []struct {
		exp, flag, a, b string
	}{
		{"slack", "-slack-factors", "0.2", "0.9"},
		{"sleep", "-sleep-presets", "none", "default"},
		{"robustness", "-intensities", "0", "1"},
	}
	for _, tc := range cases {
		t.Run(tc.exp, func(t *testing.T) {
			da := manifestDigest(t, "-exp", tc.exp, tc.flag, tc.a)
			db := manifestDigest(t, "-exp", tc.exp, tc.flag, tc.b)
			if da == db {
				t.Fatalf("%s %s and %s %s share config_digest %s", tc.flag, tc.a, tc.flag, tc.b, da)
			}
		})
	}
}
