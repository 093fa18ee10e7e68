// Command eaverify cross-checks the optimized simulation engine
// (internal/sim) against the naive reference engine (internal/refimpl) on
// randomly generated configurations, and turns any divergence into a
// small reproducible artifact: the minimized spec as JSON plus both
// decision-audit logs side by side.
//
// Usage:
//
//	eaverify [-n 200] [-seed 1] [-spec spec.json] [-no-minimize]
//	         [-spec-out min.json]
//	         [-inject-bias 0] [-inject-after 0] [-version]
//
// Without -spec, eaverify auto-enumerates the scenario registry
// (internal/registry) and sweeps n random configurations per registered
// policy starting at the given seed — the same generator the
// `go test ./internal/verify` sweep uses, so a seed printed by a failing
// test reproduces here verbatim. With -spec, it replays one configuration from a JSON file (the
// format it writes with -spec-out).
//
// -inject-bias perturbs the optimized side's energy predictions by the
// given amount (from -inject-after onward), deliberately fabricating a
// divergence; use it to watch the minimize-and-dump workflow end to end.
//
// Exit status: 0 when every configuration matched bit for bit, 1 on
// divergence, 2 on usage errors.
//
// Example:
//
//	eaverify -n 500
//	eaverify -seed 1337 -n 1 -spec-out repro.json
//	eaverify -spec repro.json
//	eaverify -n 1 -inject-bias 1e-9
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"github.com/eadvfs/eadvfs/internal/buildinfo"
	"github.com/eadvfs/eadvfs/internal/registry"
	"github.com/eadvfs/eadvfs/internal/spec"
	"github.com/eadvfs/eadvfs/internal/verify"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its environment made explicit, so the divergence
// workflow is testable without spawning a process.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("eaverify", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		n           = fs.Int("n", 200, "number of random configurations to sweep per registered policy")
		seed        = fs.Uint64("seed", 1, "first generator seed of the sweep")
		specPath    = fs.String("spec", "", "replay one configuration from a JSON spec file instead of sweeping")
		specOut     = fs.String("spec-out", "", "write the (minimized, if diverging) spec to this JSON file")
		noMinimize  = fs.Bool("no-minimize", false, "report the first divergence without shrinking it")
		injectBias  = fs.Float64("inject-bias", 0, "perturb the optimized side's energy predictions by this amount (testing the harness itself)")
		injectAfter = fs.Float64("inject-after", 0, "apply -inject-bias only to prediction windows starting at or after this time")
		version     = fs.Bool("version", false, "print build information and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *version {
		fmt.Fprintln(stdout, buildinfo.Line("eaverify"))
		return 0
	}

	var specs []*verify.Spec
	if *specPath != "" {
		s, err := readSpec(*specPath)
		if err != nil {
			fmt.Fprintf(stderr, "eaverify: %v\n", err)
			return 2
		}
		specs = append(specs, s)
	} else {
		// Auto-enumerate the registry: every registered policy — built-in
		// or linked in from an out-of-tree scenario package — is swept
		// against the reference engine with the same per-seed scenario
		// material, so a new registration cannot land uncovered.
		policies := registry.PolicyNames()
		fmt.Fprintf(stdout, "sweeping %d registered policies: %s\n",
			len(policies), strings.Join(policies, ", "))
		for i := 0; i < *n; i++ {
			for _, policy := range policies {
				specs = append(specs, verify.RandomSpecForPolicy(*seed+uint64(i), policy))
			}
		}
	}

	checked := 0
	for _, spec := range specs {
		if *injectBias != 0 {
			spec.InjectBias = *injectBias
			spec.InjectAfter = *injectAfter
		}
		d, err := verify.Check(spec)
		if err != nil {
			fmt.Fprintf(stderr, "eaverify: seed %d: invalid spec: %v\n", spec.Seed, err)
			return 2
		}
		checked++
		if !d.Diverged() {
			continue
		}

		fmt.Fprintf(stdout, "DIVERGENCE at seed %d (policy=%s predictor=%s source=%s)\n",
			spec.Seed, spec.Policy, spec.Predictor, spec.Source.Kind)
		final := spec
		if !*noMinimize {
			min, md, err := verify.Minimize(spec)
			if err == nil && md.Diverged() {
				final, d = min, md
				fmt.Fprintf(stdout, "minimized to %d task(s), horizon %v, source=%s, predictor=%s\n",
					len(min.Tasks), min.Horizon, min.Source.Kind, min.Predictor)
			}
		}
		verify.SideBySide(stdout, d)
		blob, err := json.MarshalIndent(final, "", "  ")
		if err == nil {
			fmt.Fprintf(stdout, "spec:\n%s\n", blob)
			if *specOut != "" {
				if werr := os.WriteFile(*specOut, append(blob, '\n'), 0o644); werr != nil {
					fmt.Fprintf(stderr, "eaverify: writing %s: %v\n", *specOut, werr)
				} else {
					fmt.Fprintf(stdout, "spec written to %s\n", *specOut)
				}
			}
		}
		return 1
	}
	fmt.Fprintf(stdout, "OK: %d configuration(s) bit-identical across optimized and reference engines\n", checked)
	if *specOut != "" && len(specs) == 1 {
		blob, err := json.MarshalIndent(specs[0], "", "  ")
		if err == nil {
			if werr := os.WriteFile(*specOut, append(blob, '\n'), 0o644); werr != nil {
				fmt.Fprintf(stderr, "eaverify: writing %s: %v\n", *specOut, werr)
			}
		}
	}
	return 0
}

// readSpec decodes a spec file strictly (spec.Decode).
func readSpec(path string) (*verify.Spec, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var s verify.Spec
	if err := spec.Decode(f, &s); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return &s, nil
}
