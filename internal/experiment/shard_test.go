package experiment

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"
)

func shardSpec(t *testing.T) Spec {
	t.Helper()
	s := DefaultSpec()
	s.Horizon = 2000
	s.Replications = 5
	s.Capacities = []float64{200, 600, 1000}
	if err := s.Validate(); err != nil {
		t.Fatalf("spec: %v", err)
	}
	return s
}

func TestPlanShardsCoversGridExactlyOnce(t *testing.T) {
	s := shardSpec(t)
	for _, kind := range SweepKinds() {
		for _, n := range []int{1, 2, 3, 5, 7, 100} {
			shards, err := PlanShards(kind, s, n)
			if err != nil {
				t.Fatalf("PlanShards(%s, %d): %v", kind, n, err)
			}
			if len(shards) < 1 || len(shards) > n {
				t.Fatalf("PlanShards(%s, %d) returned %d shards", kind, n, len(shards))
			}
			covered := make(map[[2]int]int)
			for i, sh := range shards {
				if sh.Index != i || sh.Count != len(shards) {
					t.Fatalf("shard %d has Index=%d Count=%d (plan size %d)", i, sh.Index, sh.Count, len(shards))
				}
				if err := sh.Validate(s, kind); err != nil {
					t.Fatalf("shard %d invalid: %v", i, err)
				}
				for r := sh.RepLo; r < sh.RepHi; r++ {
					for c := sh.CapLo; c < sh.CapHi; c++ {
						covered[[2]int{r, c}]++
					}
				}
			}
			for r := 0; r < s.Replications; r++ {
				for c := range s.Capacities {
					if covered[[2]int{r, c}] != 1 {
						t.Fatalf("PlanShards(%s, %d): cell (%d,%d) covered %d times",
							kind, n, r, c, covered[[2]int{r, c}])
					}
				}
			}
		}
	}
}

func TestPlanShardsSplitsCapacitiesForMissRate(t *testing.T) {
	s := shardSpec(t)
	// More shards than replications: missrate splits capacities too.
	shards, err := PlanShards("missrate", s, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(shards) <= s.Replications {
		t.Fatalf("want capacity-split plan > %d shards, got %d", s.Replications, len(shards))
	}
	// remaining cannot split capacities; plan caps at Replications.
	shards, err = PlanShards("remaining", s, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(shards) != s.Replications {
		t.Fatalf("remaining plan: want %d shards, got %d", s.Replications, len(shards))
	}
}

func TestShardValidate(t *testing.T) {
	s := shardSpec(t)
	nc := len(s.Capacities)
	ok := Shard{Index: 0, Count: 1, RepLo: 0, RepHi: s.Replications, CapLo: 0, CapHi: nc}
	if err := ok.Validate(s, "missrate"); err != nil {
		t.Fatalf("valid shard rejected: %v", err)
	}
	bad := []Shard{
		{Index: 0, Count: 0, RepHi: 1, CapHi: nc},                  // count < 1
		{Index: 2, Count: 2, RepHi: 1, CapHi: nc},                  // index out of range
		{Index: 0, Count: 1, RepLo: 3, RepHi: 3, CapHi: nc},        // empty rep window
		{Index: 0, Count: 1, RepHi: s.Replications + 1, CapHi: nc}, // reps out of range
		{Index: 0, Count: 1, RepHi: 1, CapLo: 2, CapHi: 2},         // empty cap window
		{Index: 0, Count: 1, RepHi: 1, CapHi: nc + 1},              // caps out of range
	}
	for i, sh := range bad {
		if err := sh.Validate(s, "missrate"); err == nil {
			t.Errorf("bad shard %d accepted: %+v", i, sh)
		}
	}
	// remaining must span all capacities.
	part := Shard{Index: 0, Count: 1, RepHi: 1, CapLo: 0, CapHi: 1}
	if err := part.Validate(s, "remaining"); err == nil {
		t.Error("remaining shard with partial capacity window accepted")
	}
	if err := part.Validate(s, "missrate"); err != nil {
		t.Errorf("missrate shard with partial capacity window rejected: %v", err)
	}
	err := ok.Validate(s, "nope")
	if want := `experiment: unknown sweep kind "nope" (want missrate or remaining)`; err == nil || err.Error() != want {
		t.Errorf("unknown kind: err %v, want %s", err, want)
	}
	for _, kind := range SweepKinds() {
		if err := ValidateSweepKind(kind); err != nil {
			t.Errorf("listed kind %q rejected: %v", kind, err)
		}
	}
}

// Pinned sha256 digests of the marshalled single-node sweeps for the
// edf/lsa policy pair, recorded from the hand-built single-node loops that
// preceded one-shard runs. They keep TestMergeShardsByteIdentical
// anchored: with both sides on the shard runner, comparing merge against
// single-node alone would compare the pipeline with itself.
const (
	pinnedMissRate            = "78c5dccbbc455ab08ca3374bdb3df846933a26b46bc39a8ebbedd164006896b6"
	pinnedRemaining           = "b6b9410018df7aa00624a706e0ad6529e65b06bd7d5253ca075ba483f591178e"
	pinnedStochasticMissRate  = "83c0884ab9e466f09a86751622f41c4b33c75784ef6b73ede02effdd011a718c"
	pinnedStochasticRemaining = "2e0986bb5a9d96e7099bc7f0577527f64d14f8cfafcefc3501b38f52f74460e3"
)

// TestMergeShardsByteIdentical is the core contract: run each sweep kind
// whole and sharded (out of order, several plan sizes), require the
// merged JSON to be byte-identical to the single-node JSON, and require
// the single-node JSON to hash to its pinned digest. The second spec
// exercises per-job execution draws and DPM sleep.
func TestMergeShardsByteIdentical(t *testing.T) {
	stochastic := shardSpec(t)
	stochastic.TaskModel = "stochastic-periodic"
	stochastic.Sleep = "default"
	for _, tc := range []struct {
		name                string
		spec                Spec
		missRate, remaining string
	}{
		{"wcet", shardSpec(t), pinnedMissRate, pinnedRemaining},
		{"stochastic-sleep", stochastic, pinnedStochasticMissRate, pinnedStochasticRemaining},
	} {
		t.Run(tc.name, func(t *testing.T) {
			checkMergeByteIdentical(t, tc.spec, tc.missRate, tc.remaining)
		})
	}
}

func checkMergeByteIdentical(t *testing.T, s Spec, pinnedMiss, pinnedRem string) {
	policies := []string{"edf", "lsa"}

	wholeMiss, err := MissRateSweep(s, policies)
	if err != nil {
		t.Fatal(err)
	}
	wantMiss := mustJSON(t, wholeMiss)
	if got := sha256Hex(wantMiss); got != pinnedMiss {
		t.Fatalf("single-node missrate digest %s, pinned %s", got, pinnedMiss)
	}
	wholeRem, err := RunSweep(context.Background(), "remaining", s, policies)
	if err != nil {
		t.Fatal(err)
	}
	wantRem := mustJSON(t, wholeRem.Remaining)
	if got := sha256Hex(wantRem); got != pinnedRem {
		t.Fatalf("single-node remaining digest %s, pinned %s", got, pinnedRem)
	}

	for _, n := range []int{1, 2, 3, 8} {
		for _, kind := range SweepKinds() {
			shards, err := PlanShards(kind, s, n)
			if err != nil {
				t.Fatal(err)
			}
			results := make([]*ShardResult, len(shards))
			for i, sh := range shards {
				res, err := RunShard(kind, s, policies, sh)
				if err != nil {
					t.Fatalf("RunShard(%s, %+v): %v", kind, sh, err)
				}
				// JSON round-trip each result to prove the wire hop
				// preserves bits (encoding/json float64 is exact).
				raw, err := json.Marshal(res)
				if err != nil {
					t.Fatal(err)
				}
				var back ShardResult
				if err := json.Unmarshal(raw, &back); err != nil {
					t.Fatal(err)
				}
				results[i] = &back
			}
			// Merge in reversed arrival order: placement is by shard
			// coordinates, so order must not matter.
			for i, j := 0, len(results)-1; i < j; i, j = i+1, j-1 {
				results[i], results[j] = results[j], results[i]
			}
			merged, err := MergeShards(kind, s, policies, results, false)
			if err != nil {
				t.Fatalf("MergeShards(%s, n=%d): %v", kind, n, err)
			}
			if merged.MissingCells != 0 {
				t.Fatalf("complete merge reports %d missing cells", merged.MissingCells)
			}
			switch kind {
			case "missrate":
				if got := mustJSON(t, merged.MissRate); got != wantMiss {
					t.Fatalf("missrate merge (n=%d) differs from single-node result", n)
				}
			case "remaining":
				if got := mustJSON(t, merged.Remaining); got != wantRem {
					t.Fatalf("remaining merge (n=%d) differs from single-node result", n)
				}
			}
		}
	}
}

func TestMergeShardsValidation(t *testing.T) {
	s := shardSpec(t)
	policies := []string{"edf"}
	shards, err := PlanShards("missrate", s, 2)
	if err != nil {
		t.Fatal(err)
	}
	results := make([]*ShardResult, len(shards))
	for i, sh := range shards {
		if results[i], err = RunShard("missrate", s, policies, sh); err != nil {
			t.Fatal(err)
		}
	}

	// Overlap: same shard twice.
	if _, err := MergeShards("missrate", s, policies, []*ShardResult{results[0], results[0]}, true); err == nil {
		t.Error("overlapping shards accepted")
	}
	// Missing coverage without allowPartial.
	if _, err := MergeShards("missrate", s, policies, results[:1], false); err == nil {
		t.Error("incomplete strict merge accepted")
	}
	// Wrong kind.
	if _, err := MergeShards("remaining", s, policies, results, false); err == nil {
		t.Error("kind mismatch accepted")
	}
	// Truncated payload.
	bad := *results[0]
	bad.Tallies = bad.Tallies[:1]
	if _, err := MergeShards("missrate", s, policies, []*ShardResult{&bad, results[1]}, false); err == nil {
		t.Error("truncated tallies accepted")
	}
}

// TestMergeShardsPartial checks graceful degradation: with a shard
// missing, the partial merge reports the loss and still pools only
// covered cells (pooled counts shrink accordingly).
func TestMergeShardsPartial(t *testing.T) {
	s := shardSpec(t)
	policies := []string{"edf"}
	shards, err := PlanShards("missrate", s, 3)
	if err != nil {
		t.Fatal(err)
	}
	results := make([]*ShardResult, 0, len(shards))
	lost := 0
	for i, sh := range shards {
		if i == 1 {
			lost = sh.Reps() * sh.Caps()
			results = append(results, nil) // failed shard slot
			continue
		}
		res, err := RunShard("missrate", s, policies, sh)
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, res)
	}
	merged, err := MergeShards("missrate", s, policies, results, true)
	if err != nil {
		t.Fatal(err)
	}
	if merged.MissingCells != lost {
		t.Fatalf("MissingCells = %d, want %d", merged.MissingCells, lost)
	}
	whole, err := MissRateSweep(s, policies)
	if err != nil {
		t.Fatal(err)
	}
	var wholeRel, partRel int
	for ci := range s.Capacities {
		wholeRel += whole.Stats["edf"][ci].Released
		partRel += merged.MissRate.Stats["edf"][ci].Released
	}
	if partRel >= wholeRel || partRel == 0 {
		t.Fatalf("partial pooled releases = %d, whole = %d; want 0 < partial < whole", partRel, wholeRel)
	}

	// Partial remaining merge: lose one replication.
	remShards, err := PlanShards("remaining", s, s.Replications)
	if err != nil {
		t.Fatal(err)
	}
	remResults := make([]*ShardResult, 0, len(remShards))
	for i, sh := range remShards {
		if i == 2 {
			continue
		}
		res, err := RunShard("remaining", s, policies, sh)
		if err != nil {
			t.Fatal(err)
		}
		remResults = append(remResults, res)
	}
	m2, err := MergeShards("remaining", s, policies, remResults, true)
	if err != nil {
		t.Fatal(err)
	}
	if m2.MissingCells != 1 {
		t.Fatalf("remaining MissingCells = %d, want 1", m2.MissingCells)
	}
	curve := m2.Remaining.Curves["edf"]
	if curve == nil || len(curve.Values) != int(s.Horizon)+1 {
		t.Fatal("partial remaining merge missing curve")
	}
	for k, v := range curve.Values {
		if v < 0 || v > 1.5 {
			t.Fatalf("partial remaining curve out of range at %d: %v", k, v)
		}
	}
}

func sha256Hex(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}
