package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"

	"github.com/eadvfs/eadvfs/internal/registry"
	"github.com/eadvfs/eadvfs/internal/spec"
)

// TestCapabilities: the discovery document enumerates every registered
// policy, source, predictor and task model with its parameter schema, in
// deterministic registration order, and repeat requests are byte-identical
// (the document is rendered exactly once).
func TestCapabilities(t *testing.T) {
	s := New(Options{Workers: 1})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	get := func() (int, http.Header, []byte) {
		t.Helper()
		resp, err := http.Get(srv.URL + "/v1/capabilities")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, resp.Header, buf.Bytes()
	}

	code, hdr, body := get()
	if code != http.StatusOK {
		t.Fatalf("GET /v1/capabilities: %d: %s", code, body)
	}
	if ct := hdr.Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q", ct)
	}

	var doc struct {
		Schema     int                   `json:"schema"`
		Policies   []registry.Capability `json:"policies"`
		Sources    []registry.Capability `json:"sources"`
		Predictors []registry.Capability `json:"predictors"`
		TaskModels []registry.Capability `json:"task_models"`
		Sweeps     []string              `json:"sweeps"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("capabilities document is not JSON: %v\n%s", err, body)
	}
	if doc.Schema != spec.Current {
		t.Errorf("schema = %d, want %d", doc.Schema, spec.Current)
	}
	names := func(caps []registry.Capability) []string {
		out := make([]string, len(caps))
		for i, c := range caps {
			out[i] = c.Name
		}
		return out
	}
	if got, want := names(doc.Policies), registry.PolicyNames(); !equalStrings(got, want) {
		t.Errorf("policies = %v, want registration order %v", got, want)
	}
	if got, want := names(doc.Predictors), registry.PredictorNames(); !equalStrings(got, want) {
		t.Errorf("predictors = %v, want %v", got, want)
	}
	if got, want := names(doc.Sources), registry.SourceNames(); !equalStrings(got, want) {
		t.Errorf("sources = %v, want %v", got, want)
	}
	if got, want := names(doc.TaskModels), registry.TaskModelNames(); !equalStrings(got, want) {
		t.Errorf("task models = %v, want %v", got, want)
	}
	if want := []string{"missrate", "remaining"}; !equalStrings(doc.Sweeps, want) {
		t.Errorf("sweeps = %v, want %v", doc.Sweeps, want)
	}

	// The static-dvfs schema must surface its utilization parameter —
	// the self-description a coordinator plans sweeps from.
	var static *registry.Capability
	for i := range doc.Policies {
		if doc.Policies[i].Name == "static-dvfs" {
			static = &doc.Policies[i]
		}
	}
	if static == nil || len(static.Params) == 0 || static.Params[0].Name != "utilization" {
		t.Errorf("static-dvfs capability lacks its utilization parameter: %+v", static)
	}

	// Byte-identical repeats.
	_, _, body2 := get()
	if !bytes.Equal(body, body2) {
		t.Error("repeat capabilities responses differ")
	}

	// GET-only.
	resp, err := http.Post(srv.URL+"/v1/capabilities", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /v1/capabilities = %d, want 405", resp.StatusCode)
	}

	// Still served while draining — a coordinator may probe a worker that
	// is shutting down.
	s.BeginDrain()
	if code, _, _ := get(); code != http.StatusOK {
		t.Errorf("draining GET /v1/capabilities = %d, want 200", code)
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestSimRequestErrors: the registry and schema gates surface as typed
// 400s — unknown names list what IS registered, v2 members demand the
// declaration, and future schemas are refused.
func TestSimRequestErrors(t *testing.T) {
	srv := httptest.NewServer(New(Options{Workers: 1}).Handler())
	defer srv.Close()

	post := func(path, body string) (int, string) {
		t.Helper()
		resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, buf.String()
	}

	cases := []struct {
		name, path, body string
		wantParts        []string
	}{
		{
			"unknown policy lists registered names", "/v1/sim",
			`{"Policy":"quantum-annealer","Horizon":500}`,
			append([]string{"unknown policy", "quantum-annealer"}, registry.PolicyNames()...),
		},
		{
			"unknown predictor", "/v1/sim",
			`{"Predictor":"crystal-ball","Horizon":500}`,
			[]string{"unknown predictor", "crystal-ball", "ewma"},
		},
		{
			"invalid policy param", "/v1/sim",
			`{"schema":2,"Policy":"static-dvfs","policy_params":{"utilization":1.5},"Horizon":500}`,
			[]string{"utilization", "static-dvfs"},
		},
		{
			"unknown policy param", "/v1/sim",
			`{"schema":2,"Policy":"static-dvfs","policy_params":{"warp":9},"Horizon":500}`,
			[]string{"warp", "unknown parameter"},
		},
		{
			"v2 member without declaration", "/v1/sim",
			`{"Policy":"edf","task_model":"periodic","Horizon":500}`,
			[]string{"task_model", "requires"},
		},
		{
			"future schema", "/v1/sim",
			`{"schema":3,"Policy":"edf","Horizon":500}`,
			[]string{"newer than this build"},
		},
		{
			"nested v2 member in v1 sweep", "/v1/sweep",
			`{"kind":"missrate","spec":{"Horizon":500,"task_model":"periodic"},"policies":["edf"]}`,
			[]string{"task_model", "requires"},
		},
		{
			"unknown sweep policy", "/v1/sweep",
			`{"kind":"missrate","spec":{"Horizon":500,"Capacities":[300],"Replications":1},"policies":["edf","warp-speed"]}`,
			[]string{"warp-speed"},
		},
		{
			"negative PMax", "/v1/sim",
			`{"PMax":-1,"Horizon":100}`,
			[]string{"PMax", "-1"},
		},
		{
			"negative Capacity", "/v1/sim",
			`{"Capacity":-5,"Horizon":100}`,
			[]string{"Capacity", "-5"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, body := post(tc.path, tc.body)
			if code != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400; body: %s", code, body)
			}
			for _, part := range tc.wantParts {
				if !strings.Contains(body, part) {
					t.Errorf("error body missing %q:\n%s", part, body)
				}
			}
		})
	}
}

// TestCapabilitiesMatchesSnapshotOrder guards the registry's promise that
// Snapshot is registration-ordered, not sorted — ordering is part of the
// byte-stability contract for the rendered document.
func TestCapabilitiesMatchesSnapshotOrder(t *testing.T) {
	snap := registry.Snapshot()
	var names []string
	for _, c := range snap.Policies {
		names = append(names, c.Name)
	}
	sorted := append([]string(nil), names...)
	sort.Strings(sorted)
	if equalStrings(names, sorted) && len(names) > 1 {
		// Registration order happens to be sorted only if someone
		// alphabetized the registry; the built-ins are not sorted
		// (ea-dvfs-dynamic < ea-dvfs is false lexically), so this is a
		// real drift signal, not noise.
		t.Error("policy snapshot is alphabetized — expected registration order")
	}
}
