package main

import (
	"context"
	"encoding/json"
	"reflect"
	"testing"

	"github.com/eadvfs/eadvfs/internal/experiment"
	"github.com/eadvfs/eadvfs/internal/service"
)

// The -local path must write exactly the bytes the library produces plus
// a trailing newline — that is the single-node reference CI compares the
// fleet output against.
func TestRunSweepLocalMatchesLibrary(t *testing.T) {
	spec := service.NormalizeSpec(experiment.Spec{
		Horizon:      1000,
		Replications: 2,
		Capacities:   []float64{300},
	})
	policies := []string{"lsa"}

	got, err := runSweep(context.Background(), true, "", "missrate", spec, policies, fleetConfig{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := experiment.RunSweep(context.Background(), "missrate", spec, policies)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(res.MissRate)
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')
	if string(got) != string(want) {
		t.Fatal("-local output differs from library bytes")
	}
}

func TestRunSweepRejectsBadInput(t *testing.T) {
	spec := service.NormalizeSpec(experiment.Spec{})
	if _, err := runSweep(context.Background(), true, "", "nope", spec, []string{"lsa"}, fleetConfig{}); err == nil {
		t.Fatal("unknown kind accepted")
	}
	if _, err := runSweep(context.Background(), false, "", "missrate", spec, []string{"lsa"}, fleetConfig{}); err == nil {
		t.Fatal("fleet run without workers accepted")
	}
}

func TestSplitListAndParseFloats(t *testing.T) {
	if got := splitList(" a, ,b ,"); !reflect.DeepEqual(got, []string{"a", "b"}) {
		t.Fatalf("splitList: %v", got)
	}
	if got := splitList(""); got != nil {
		t.Fatalf("splitList(empty): %v", got)
	}
	vals, err := parseFloats("200, 600.5")
	if err != nil || !reflect.DeepEqual(vals, []float64{200, 600.5}) {
		t.Fatalf("parseFloats: %v %v", vals, err)
	}
	if _, err := parseFloats("200,x"); err == nil {
		t.Fatal("bad float accepted")
	}
}
