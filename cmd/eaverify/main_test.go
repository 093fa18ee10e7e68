package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/eadvfs/eadvfs/internal/registry"
	"github.com/eadvfs/eadvfs/internal/verify"
)

// TestCleanSweep: a small sweep of healthy seeds exits 0 and reports the
// count it checked — n configurations per registered policy, since the
// sweep auto-enumerates the registry.
func TestCleanSweep(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-n", "5", "-seed", "1"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s stdout: %s", code, errb.String(), out.String())
	}
	want := fmt.Sprintf("OK: %d configuration(s)", 5*len(registry.PolicyNames()))
	if !strings.Contains(out.String(), want) {
		t.Fatalf("output missing %q: %s", want, out.String())
	}
}

// TestSweepCoversEveryRegisteredPolicy: the sweep header must name every
// registered policy — the smoke-level proof that auto-enumeration is
// wired to the registry rather than a hardcoded list.
func TestSweepCoversEveryRegisteredPolicy(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-quick", "-n", "1"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s stdout: %s", code, errb.String(), out.String())
	}
	names := registry.PolicyNames()
	if len(names) == 0 {
		t.Fatal("registry enumerates no policies")
	}
	for _, name := range names {
		if !strings.Contains(out.String(), name) {
			t.Errorf("sweep output does not mention registered policy %q:\n%s", name, out.String())
		}
	}
	// -quick pins the per-policy count, so the total is len(names)*25.
	want := fmt.Sprintf("OK: %d configuration(s)", 25*len(names))
	if !strings.Contains(out.String(), want) {
		t.Fatalf("output missing %q: %s", want, out.String())
	}
}

// TestInjectedDivergenceWorkflow: with a predictor bias injected into the
// optimized side, the binary must detect the divergence, minimize the
// spec, dump both audit logs side by side, write the repro file, and exit
// 1 — the full debugging workflow from the README.
func TestInjectedDivergenceWorkflow(t *testing.T) {
	reproPath := filepath.Join(t.TempDir(), "repro.json")
	var out, errb bytes.Buffer
	code := run([]string{
		"-n", "1", "-seed", "42",
		"-inject-bias", "1e-6",
		"-spec-out", reproPath,
	}, &out, &errb)
	if code != 1 {
		t.Fatalf("want exit 1 on divergence, got %d\nstdout: %s\nstderr: %s",
			code, out.String(), errb.String())
	}
	text := out.String()
	for _, want := range []string{"DIVERGENCE at seed 42", "minimized to", ">>>", "opt:", "ref:", "spec written to"} {
		if !strings.Contains(text, want) {
			t.Fatalf("output missing %q:\n%s", want, text)
		}
	}

	// The written repro must be a valid spec that still diverges when
	// replayed through -spec.
	blob, err := os.ReadFile(reproPath)
	if err != nil {
		t.Fatal(err)
	}
	var spec verify.Spec
	if err := json.Unmarshal(blob, &spec); err != nil {
		t.Fatalf("repro file is not a valid spec: %v", err)
	}
	if spec.InjectBias == 0 {
		t.Fatal("repro spec lost the injected bias — replay would be clean")
	}
	out.Reset()
	errb.Reset()
	code = run([]string{"-spec", reproPath, "-no-minimize"}, &out, &errb)
	if code != 1 {
		t.Fatalf("replayed repro did not diverge: exit %d\n%s", code, out.String())
	}
}

// TestBadSpecFile: a spec file naming an unknown preset, a negative
// capacity, an unknown field or trailing data exits 2 with an error that
// names the offending field — never a panic.
func TestBadSpecFile(t *testing.T) {
	base, err := json.Marshal(verify.RandomSpecForPolicy(1, "ea-dvfs"))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, field string
		edit        func(m map[string]any)
		trailing    string
	}{
		{name: "cpu", field: "cpu", edit: func(m map[string]any) { m["cpu"] = "nope" }},
		{name: "sleep", field: "sleep", edit: func(m map[string]any) { m["sleep"] = "bogus" }},
		{name: "capacity", field: "capacity", edit: func(m map[string]any) { m["capacity"] = -5 }},
		{name: "unknown field", field: "capcity", edit: func(m map[string]any) { m["capcity"] = 5 }},
		{name: "trailing data", field: "trailing", edit: func(map[string]any) {}, trailing: "}"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var m map[string]any
			if err := json.Unmarshal(base, &m); err != nil {
				t.Fatal(err)
			}
			tc.edit(m)
			blob, err := json.Marshal(m)
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(t.TempDir(), "spec.json")
			if err := os.WriteFile(path, append(blob, tc.trailing...), 0o644); err != nil {
				t.Fatal(err)
			}
			var out, errb bytes.Buffer
			code := run([]string{"-spec", path}, &out, &errb)
			if code != 2 {
				t.Fatalf("exit %d, want 2\nstdout: %s\nstderr: %s", code, out.String(), errb.String())
			}
			if !strings.Contains(errb.String(), tc.field) {
				t.Fatalf("stderr does not name %q: %s", tc.field, errb.String())
			}
			if strings.Contains(errb.String(), "goroutine") {
				t.Fatalf("stderr carries a stack trace: %s", errb.String())
			}
		})
	}
}
