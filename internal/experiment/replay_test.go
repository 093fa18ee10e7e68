package experiment

import (
	"context"
	"reflect"
	"testing"
)

// TestDeterministicReplay is the golden determinism check the perf work
// must preserve: the same (seed, replication, policy) always produces an
// identical Result — every field, including per-task stats, meters, the
// recorded energy series and the dispatched-event count. The pooled DES
// events, the reused scheduling context, the prefix-sum caches and the
// forked solar traces are all invisible at this level or they are bugs.
func TestDeterministicReplay(t *testing.T) {
	spec := DefaultSpec()
	spec.Horizon = 2000
	for _, seed := range []uint64{1, 2, 3} {
		for _, policy := range []string{"edf", "lsa", "ea-dvfs"} {
			pf, err := Policy(policy)
			if err != nil {
				t.Fatal(err)
			}
			s := spec
			s.Seed = seed

			run := func(prepared bool) any {
				rep, err := Replicate(s, 1)
				if err != nil {
					t.Fatal(err)
				}
				if prepared {
					rep.PrepareSource(s.Horizon)
				}
				res, err := RunOne(context.Background(), s, rep, 300, pf, true)
				if err != nil {
					t.Fatal(err)
				}
				return res
			}

			first := run(false)
			if again := run(false); !reflect.DeepEqual(first, again) {
				t.Fatalf("seed %d, policy %s: replay diverged\nfirst: %+v\nagain: %+v",
					seed, policy, first, again)
			}
			// A run on a forked, pre-warmed trace is the same run.
			if forked := run(true); !reflect.DeepEqual(first, forked) {
				t.Fatalf("seed %d, policy %s: forked-source run diverged\nfresh: %+v\nforked: %+v",
					seed, policy, first, forked)
			}
		}
	}
}
