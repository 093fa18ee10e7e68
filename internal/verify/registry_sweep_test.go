package verify

import (
	"encoding/json"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/eadvfs/eadvfs/internal/registry"
	"github.com/eadvfs/eadvfs/internal/runspec"
)

// registryRunCounter mirrors runCounter for the registry sweep: repeated
// -count=K runs scan disjoint seed windows per policy.
var registryRunCounter uint64

// TestRegistryDifferential auto-enumerates the scenario registry and
// differentially sweeps EVERY registered policy against the reference
// engine — the enforcement half of the registry contract: registering a
// policy buys its cross-check, and a registration that diverges from
// refimpl (or, lacking a refimpl counterpart, from the reference engine
// running the shared implementation) fails this test with a minimized
// counterexample spec.
//
// Unlike TestDifferential, which lets RandomSpec draw the policy from
// its own menu, every policy here gets the same per-seed scenario
// material (source, tasks, capacity, faults), so a fresh registration
// cannot dodge coverage by being rare in the random draw.
func TestRegistryDifferential(t *testing.T) {
	perPolicy := *verifyN / 4
	if *quick {
		perPolicy = 50
	}
	if perPolicy < 1 {
		perPolicy = 1
	}
	window := atomic.AddUint64(&registryRunCounter, 1) - 1
	base := *verifySeed + window*uint64(perPolicy)
	policies := registry.PolicyNames()
	if len(policies) == 0 {
		t.Fatal("registry has no policies — the built-in registrations are gone")
	}
	t.Logf("registry sweep: %d policies × %d specs from seed %d", len(policies), perPolicy, base)
	for _, policy := range policies {
		policy := policy
		t.Run(policy, func(t *testing.T) {
			for i := 0; i < perPolicy; i++ {
				seed := base + uint64(i)
				t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
					t.Parallel()
					spec := RandomSpecForPolicy(seed, policy)
					d, err := Check(spec)
					if err != nil {
						t.Fatalf("spec from seed %d failed to build: %v", seed, err)
					}
					if !d.Diverged() {
						return
					}
					// Shrink before reporting: the minimized spec is the
					// counterexample a human debugs from.
					min, md, merr := Minimize(spec)
					report := spec
					diffs := d.Diffs
					if merr == nil && md.Diverged() {
						report, diffs = min, md.Diffs
					}
					js, _ := json.MarshalIndent(report, "", "  ")
					t.Fatalf("policy %q diverged from the reference engine on seed %d:\n  %s\n"+
						"minimized counterexample spec:\n%s\n"+
						"reproduce: write the spec to a file and run: go run ./cmd/eaverify -spec <file>",
						policy, seed, strings.Join(diffs, "\n  "), js)
				})
			}
		})
	}
}

// TestPaperExamplesDifferential puts the paper's two worked examples,
// §2 / Fig 1 and §4.3 / Fig 3 (the run documents cmd/eatrace renders),
// under the differential check with every registered policy.
func TestPaperExamplesDifferential(t *testing.T) {
	for _, name := range []string{"fig1", "fig3"} {
		for _, policy := range registry.PolicyNames() {
			t.Run(name+"/"+policy, func(t *testing.T) {
				doc, err := runspec.Paper(name)
				if err != nil {
					t.Fatal(err)
				}
				doc.Policy = policy
				d, err := Check(&Spec{Spec: *doc})
				if err != nil {
					t.Fatal(err)
				}
				if d.Diverged() {
					t.Fatalf("%s under %s diverged from the reference engine:\n  %s",
						name, policy, strings.Join(d.Diffs, "\n  "))
				}
			})
		}
	}
}

// TestRegistrySweepCoversEveryPolicy pins the coverage claim itself: the
// sweep above iterates registry.PolicyNames(), so this asserts that the
// enumeration includes every built-in (and would include out-of-tree
// registrations linked into the test binary).
func TestRegistrySweepCoversEveryPolicy(t *testing.T) {
	got := registry.PolicyNames()
	for _, want := range []string{"ea-dvfs", "ea-dvfs-dynamic", "lsa", "edf", "static-dvfs", "greedy-stretch"} {
		found := false
		for _, name := range got {
			if name == want {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("registry enumeration %v is missing built-in policy %q", got, want)
		}
	}
	for _, name := range got {
		if _, err := registry.Policy(name); err != nil {
			t.Errorf("enumerated policy %q fails to resolve: %v", name, err)
		}
	}
}
