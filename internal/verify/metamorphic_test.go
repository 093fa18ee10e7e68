package verify

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/eadvfs/eadvfs/internal/obs"
	"github.com/eadvfs/eadvfs/internal/runspec"
	"github.com/eadvfs/eadvfs/internal/sim"
	"github.com/eadvfs/eadvfs/internal/task"
)

// Metamorphic properties: relations that must hold between *different*
// runs, complementing the differential sweep's same-input comparison.
// All seeds are pinned, so every property is a deterministic regression
// test rather than a flaky statistical one.

// TestSeedDeterminism: the optimized engine run twice on the same spec is
// bit-identical — Result, audits and events. Pool reuse, map iteration or
// time-dependent state anywhere in the hot path would break this first.
func TestSeedDeterminism(t *testing.T) {
	for _, seed := range []uint64{3, 17, 41, 97, malformedSeed} {
		spec := RandomSpec(seed)
		run := func() (*sim.Result, *obs.Recorder, error) {
			cfg, _, err := spec.Pair()
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			rec := obs.NewRecorder()
			cfg.Probe = rec
			res, err := sim.Run(cfg)
			return res, rec, err
		}
		res1, rec1, err1 := run()
		res2, rec2, err2 := run()
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("seed %d: error nondeterminism: %v vs %v", seed, err1, err2)
		}
		var diffs []string
		if res1 != nil && res2 != nil {
			bitDiff("Result", reflect.ValueOf(*res1), reflect.ValueOf(*res2), &diffs)
		}
		bitDiff("Decisions", reflect.ValueOf(rec1.Decisions()), reflect.ValueOf(rec2.Decisions()), &diffs)
		bitDiff("Events", reflect.ValueOf(rec1.Events()), reflect.ValueOf(rec2.Events()), &diffs)
		if len(diffs) > 0 {
			t.Fatalf("seed %d: two identical runs diverged:\n  %v", seed, diffs)
		}
	}
}

// malformedSeed is an arbitrary pinned seed that historically drew a
// fault-injected, jittered spec — kept in the determinism set so the
// property covers the wrapped (fault.Set) paths too.
const malformedSeed = 123456789

// TestTimeShiftInvariance: under a constant source, a full ideal store and
// a history-free predictor, shifting every task offset and the horizon by
// the same integer Δ cannot change what happens to any job — the system
// state a job observes at release is Δ-translated but otherwise equal. Job
// counters must match exactly; accumulated times shift by exactly the
// added idle prefix (compared with a tolerance, since the shifted-window
// arithmetic reassociates float sums).
func TestTimeShiftInvariance(t *testing.T) {
	const delta = 7.0
	base := &Spec{Spec: runspec.Spec{
		Policy:    "ea-dvfs",
		Predictor: "zero",
		Horizon:   80,
		Tasks: []task.Task{
			{ID: 0, Period: 20, Deadline: 20, WCET: 5},
			{ID: 1, Period: 30, Deadline: 30, WCET: 6, Offset: 4},
		},
		Source:   runspec.SourceSpec{Kind: "constant", Power: 3},
		Capacity: 200, Initial: 200,
	}}
	shifted := *base
	shifted.Horizon += delta
	shifted.Tasks = make([]task.Task, len(base.Tasks))
	copy(shifted.Tasks, base.Tasks)
	for i := range shifted.Tasks {
		shifted.Tasks[i].Offset += delta
	}

	runCounters := func(s *Spec) (*sim.Result, error) {
		cfg, _, err := s.Pair()
		if err != nil {
			return nil, err
		}
		return sim.Run(cfg)
	}
	a, err := runCounters(base)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runCounters(&shifted)
	if err != nil {
		t.Fatal(err)
	}
	if a.Miss != b.Miss {
		t.Fatalf("miss stats changed under time shift: %+v vs %+v", a.Miss, b.Miss)
	}
	if a.Switches != b.Switches || a.Preemptions != b.Preemptions {
		t.Fatalf("switch/preemption counts changed under time shift: %d/%d vs %d/%d",
			a.Switches, a.Preemptions, b.Switches, b.Preemptions)
	}
	if math.Abs(a.BusyTime-b.BusyTime) > 1e-6 {
		t.Fatalf("busy time changed under time shift: %v vs %v", a.BusyTime, b.BusyTime)
	}
	if math.Abs((b.IdleTime+b.StallTime)-(a.IdleTime+a.StallTime)-delta) > 1e-6 {
		t.Fatalf("idle time should grow by exactly the shift %v: %v vs %v",
			delta, a.IdleTime, b.IdleTime)
	}
}

// TestCapacityMonotonicity: with a full store at release and everything
// else fixed, a strictly larger capacity can only give the scheduler more
// energy at every instant — under EDF (whose decisions ignore the energy
// state, so the schedule is capacity-independent and only stalls differ)
// the miss count must be non-increasing in capacity.
func TestCapacityMonotonicity(t *testing.T) {
	capacities := []float64{0, 2, 8, 32, 128, 512}
	for _, seed := range []uint64{5, 29, 71} {
		spec := RandomSpec(seed)
		spec.Policy = "edf"
		spec.BCWCRatio = 0 // keep actual work identical across runs
		spec.FaultIntensity = 0
		prevMissed := -1
		prevCap := 0.0
		for i, c := range capacities {
			spec.Capacity, spec.Initial = c, c
			cfg, _, err := spec.Pair()
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			res, err := sim.Run(cfg)
			if err != nil {
				t.Fatalf("seed %d cap %v: %v", seed, c, err)
			}
			if i > 0 && res.Miss.Missed > prevMissed {
				t.Fatalf("seed %d: misses increased with capacity: %d at C=%v -> %d at C=%v",
					seed, prevMissed, prevCap, res.Miss.Missed, c)
			}
			prevMissed, prevCap = res.Miss.Missed, c
		}
	}
}

// TestManifestReplay: a run streamed to JSONL alongside a manifest that
// embeds its verify.Spec must be fully reproducible — re-running the
// decoded spec yields a byte-identical JSONL stream, the stream passes the
// strict schema checker, and the stream's own accounting (segment tiling,
// arrival/miss tallies) agrees with the Result. This is the
// "energy-conservation replay of recorded runs" property: nothing about a
// run exists only in memory.
func TestManifestReplay(t *testing.T) {
	spec := RandomSpec(1234)
	spec.FaultIntensity = 0.4 // exercise fault events in the stream
	spec.FaultSeed = 99

	runJSONL := func(s *Spec) ([]byte, *sim.Result) {
		cfg, _, err := s.Pair()
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		jw := obs.NewJSONLWriter(&buf)
		cfg.Probe = jw
		res, err := sim.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := jw.Flush(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes(), res
	}

	stream1, res1 := runJSONL(spec)

	// Manifest round-trip through disk.
	man, err := obs.NewManifest("verify-test", spec.Policy,
		map[string]uint64{"spec": spec.Seed}, spec)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "manifest.json")
	if err := man.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	man2, err := obs.ReadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	var replay Spec
	if err := man2.DecodeConfig(&replay); err != nil {
		t.Fatal(err)
	}

	stream2, res2 := runJSONL(&replay)
	if !bytes.Equal(stream1, stream2) {
		t.Fatal("replayed JSONL stream differs from the original byte stream")
	}
	var diffs []string
	bitDiff("Result", reflect.ValueOf(*res1), reflect.ValueOf(*res2), &diffs)
	if len(diffs) > 0 {
		t.Fatalf("replayed Result diverged:\n  %v", diffs)
	}

	// The stream must satisfy the strict schema.
	n, err := obs.CheckJSONL(bytes.NewReader(stream1))
	if err != nil {
		t.Fatalf("CheckJSONL rejected the stream: %v", err)
	}
	if n == 0 {
		t.Fatal("CheckJSONL validated zero lines — stream empty?")
	}

	// Stream-level conservation: segments tile [0, horizon] contiguously
	// and the stream's tallies agree with the Result's counters.
	checkStreamConservation(t, stream1, spec.Horizon, res1)
}

// streamEvent is the subset of the schema-v1 event line the conservation
// check reads back.
type streamEvent struct {
	Type  string   `json:"type"`
	T     float64  `json:"t"`
	Kind  string   `json:"kind"`
	Start *float64 `json:"start"`
	Mode  string   `json:"mode"`
}

func decodeEvents(t *testing.T, stream []byte) []streamEvent {
	t.Helper()
	var events []streamEvent
	sc := bufio.NewScanner(bytes.NewReader(stream))
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var ev streamEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("undecodable stream line: %v", err)
		}
		if ev.Type == "event" {
			events = append(events, ev)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return events
}

func checkStreamConservation(t *testing.T, stream []byte, horizon float64, res *sim.Result) {
	t.Helper()
	events := decodeEvents(t, stream)
	cursor := 0.0
	arrivals, misses := 0, 0
	busy := 0.0
	for _, ev := range events {
		switch ev.Kind {
		case "segment":
			if ev.Start == nil {
				t.Fatalf("segment line at t=%v without a start field", ev.T)
			}
			if math.Abs(*ev.Start-cursor) > 1e-9 {
				t.Fatalf("segment gap: previous segment ended at %v, next starts at %v", cursor, *ev.Start)
			}
			if ev.Mode == "run" {
				busy += ev.T - *ev.Start
			}
			cursor = ev.T
		case "arrival":
			arrivals++
		case "miss":
			misses++
		}
	}
	if math.Abs(cursor-horizon) > 1e-9 {
		t.Fatalf("segments do not reach the horizon: last end %v, horizon %v", cursor, horizon)
	}
	if arrivals != res.Miss.Released {
		t.Fatalf("stream arrivals %d != Result released %d", arrivals, res.Miss.Released)
	}
	if misses != res.Miss.Missed {
		t.Fatalf("stream misses %d != Result missed %d", misses, res.Miss.Missed)
	}
	if math.Abs(busy-res.BusyTime) > 1e-6 {
		t.Fatalf("stream busy time %v != Result busy time %v", busy, res.BusyTime)
	}
}
