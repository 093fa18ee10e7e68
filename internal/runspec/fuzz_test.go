package runspec_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"github.com/eadvfs/eadvfs/internal/runspec"
	"github.com/eadvfs/eadvfs/internal/sim"
	"github.com/eadvfs/eadvfs/internal/spec"
	"github.com/eadvfs/eadvfs/internal/verify"
)

const (
	// fuzzMaxTime bounds the horizon and every relative deadline, so no
	// prediction window reaches past 2·fuzzMaxTime and a realized solar
	// trace stays a few KiB; the engine's own cap is 2^26 units.
	fuzzMaxTime = 1000
	// fuzzMaxEvents replaces a larger or unlimited watchdog budget.
	fuzzMaxEvents = 50_000
	// fuzzCheckHorizon is the horizon up to which a document must also
	// pass the optimized-against-reference differential check.
	fuzzCheckHorizon = 60
)

// FuzzRunSpec drives the whole engine from arbitrary bytes: any input that
// decodes and compiles as a run document must run to an invariant-clean
// result or end in an error other than an invariant violation, and never
// panic. A short run must also agree with the reference engine bit for bit.
func FuzzRunSpec(f *testing.F) {
	for _, name := range []string{"fig1", "fig3"} {
		blob, err := os.ReadFile(filepath.Join("paper", name+".json"))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
	}
	// Seeds whose documents between them cover every source kind, sleep
	// states, faults and both jitter flavors.
	for _, seed := range []uint64{1, 4, 7, 10, 11, 40} {
		s := verify.RandomSpec(seed)
		s.Horizon = fuzzCheckHorizon
		blob, err := json.Marshal(s.Spec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
	}
	f.Fuzz(func(t *testing.T, blob []byte) {
		var doc runspec.Spec
		if spec.Decode(bytes.NewReader(blob), &doc) != nil {
			return
		}
		if !(doc.Horizon <= fuzzMaxTime) {
			t.Skip("horizon beyond the fuzzing bound")
		}
		for _, tk := range doc.Tasks {
			if !(tk.Deadline <= fuzzMaxTime) {
				t.Skip("deadline beyond the fuzzing bound")
			}
		}
		if doc.MaxEvents == 0 || doc.MaxEvents > fuzzMaxEvents {
			doc.MaxEvents = fuzzMaxEvents
		}
		cfg, err := doc.Compile(false)
		if err != nil {
			return
		}
		cfg.CheckInvariants = true
		_, err = sim.Run(cfg)
		var inv *sim.InvariantError
		if errors.As(err, &inv) {
			t.Fatalf("%s\ndocument: %s", err, blob)
		}
		if doc.Horizon > fuzzCheckHorizon {
			return
		}
		d, err := verify.Check(&verify.Spec{Spec: doc})
		if err != nil {
			t.Fatalf("compiled once, then: %v", err)
		}
		if d.Diverged() {
			t.Fatalf("optimized and reference engines diverged:\n  %v\ndocument: %s", d.Diffs, blob)
		}
	})
}
