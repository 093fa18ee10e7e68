package eadvfs_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	eadvfs "github.com/eadvfs/eadvfs"
	"github.com/eadvfs/eadvfs/internal/digest"
	"github.com/eadvfs/eadvfs/internal/obs"
	"github.com/eadvfs/eadvfs/internal/service"
	"github.com/eadvfs/eadvfs/internal/spec"
)

// -update regenerates testdata/specs/digests.golden from the corpus.
var updateGolden = flag.Bool("update", false, "rewrite golden files")

const specDir = "testdata/specs"

// corpusFiles returns the v1 documents under testdata/specs in sorted
// order: sim_*.json are /v1/sim configs, sweep_*.json are /v1/sweep
// requests.
func corpusFiles(t *testing.T) []string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(specDir, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(names) < 6 {
		t.Fatalf("corpus too small: %d files under %s", len(names), specDir)
	}
	sort.Strings(names)
	return names
}

// withSchema2 spells a v1 corpus document as schema 2: the same bytes
// with a leading "schema":2 member. It is how a client upgrading to the
// v2 wire form would send the same configuration.
func withSchema2(t *testing.T, raw []byte) []byte {
	t.Helper()
	body, ok := bytes.CutPrefix(bytes.TrimSpace(raw), []byte("{"))
	if !ok {
		t.Fatalf("corpus document is not a JSON object: %.40q", raw)
	}
	sep := ","
	if bytes.HasPrefix(bytes.TrimSpace(body), []byte("}")) {
		sep = ""
	}
	return append([]byte(`{"schema":2`+sep), body...)
}

// TestSpecCorpusGoldenDigests pins the bytes of the corpus itself: every
// committed document is unversioned v1, and the digest.Compact of each
// file matches testdata/specs/digests.golden, so an edit to a corpus
// file shows here before it moves any result. It pins the documents, not
// the service's cache keys: those are the config_digest inside each
// response, pinned by results.golden (TestSpecCorpusGoldenResults).
func TestSpecCorpusGoldenDigests(t *testing.T) {
	var lines []string
	for _, name := range corpusFiles(t) {
		raw, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		base := filepath.Base(name)
		v, err := spec.CheckWire(raw)
		if err != nil {
			t.Errorf("%s: %v", base, err)
			continue
		}
		if v != 1 {
			t.Errorf("%s: corpus document declares schema %d, want unversioned v1", base, v)
		}
		if v2, err := spec.CheckWire(withSchema2(t, raw)); err != nil || v2 != spec.Current {
			t.Errorf("%s: schema-2 spelling checks as %d, %v; want %d", base, v2, err, spec.Current)
		}
		lines = append(lines, fmt.Sprintf("%s %s", base, digest.Compact(raw)))
	}
	got := strings.Join(lines, "\n") + "\n"

	goldenPath := filepath.Join(specDir, "digests.golden")
	if *updateGolden {
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden file (run `go test -run TestSpecCorpusGoldenDigests -update .`): %v", err)
	}
	if got != string(want) {
		t.Errorf("corpus digests drifted from %s — a corpus document's bytes changed (the cache keys are pinned by results.golden's config_digest).\ngot:\n%swant:\n%s",
			goldenPath, got, want)
	}
}

// TestSpecCorpusStructDigests checks the cache-key contract at the
// struct layer: decoding a v1 document and its schema-2 spelling into the
// typed config and re-marshaling canonically (Schema zeroed, exactly what
// the service hashes) must produce identical bytes.
func TestSpecCorpusStructDigests(t *testing.T) {
	for _, name := range corpusFiles(t) {
		base := filepath.Base(name)
		t.Run(base, func(t *testing.T) {
			raw, err := os.ReadFile(name)
			if err != nil {
				t.Fatal(err)
			}
			v2 := withSchema2(t, raw)
			canon := func(doc []byte) []byte {
				t.Helper()
				if strings.HasPrefix(base, "sweep_") {
					var req service.SweepRequest
					dec := json.NewDecoder(bytes.NewReader(doc))
					dec.DisallowUnknownFields()
					if err := dec.Decode(&req); err != nil {
						t.Fatalf("corpus request does not decode strictly: %v", err)
					}
					req.Schema = 0
					out, err := json.Marshal(req)
					if err != nil {
						t.Fatal(err)
					}
					return out
				}
				var cfg eadvfs.Config
				dec := json.NewDecoder(bytes.NewReader(doc))
				dec.DisallowUnknownFields()
				if err := dec.Decode(&cfg); err != nil {
					t.Fatalf("corpus document does not decode strictly: %v", err)
				}
				cfg.Schema = 0
				out, err := json.Marshal(cfg)
				if err != nil {
					t.Fatal(err)
				}
				return out
			}
			c1, c2 := canon(raw), canon(v2)
			if !bytes.Equal(c1, c2) {
				t.Errorf("canonical forms differ between the v1 and schema-2 spellings:\n  v1: %s\n  v2: %s", c1, c2)
			}
			if digest.Compact(c1) != digest.Compact(c2) {
				t.Errorf("struct-level digest differs between the v1 and schema-2 spellings")
			}
		})
	}
}

// TestSpecCorpusServiceCacheWarm drives the full wire path: POST each v1
// document, then its schema-2 spelling, against a live service. The
// second request must be an X-Cache hit with a byte-identical body —
// proof the upgrade never cold-starts a cache.
func TestSpecCorpusServiceCacheWarm(t *testing.T) {
	srv := httptest.NewServer(service.New(service.Options{Workers: 2}).Handler())
	defer srv.Close()

	for _, name := range corpusFiles(t) {
		base := filepath.Base(name)
		t.Run(base, func(t *testing.T) {
			raw, err := os.ReadFile(name)
			if err != nil {
				t.Fatal(err)
			}
			v2 := withSchema2(t, raw)
			endpoint := srv.URL + "/v1/sim"
			if strings.HasPrefix(base, "sweep_") {
				endpoint = srv.URL + "/v1/sweep"
			}
			post := func(body []byte) (string, []byte) {
				t.Helper()
				resp, err := http.Post(endpoint, "application/json", bytes.NewReader(body))
				if err != nil {
					t.Fatal(err)
				}
				defer resp.Body.Close()
				var buf bytes.Buffer
				if _, err := buf.ReadFrom(resp.Body); err != nil {
					t.Fatal(err)
				}
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("POST %s: %d: %s", endpoint, resp.StatusCode, buf.String())
				}
				return resp.Header.Get("X-Cache"), buf.Bytes()
			}
			cache1, body1 := post(raw)
			if cache1 != "miss" {
				t.Errorf("first (v1) request: X-Cache = %q, want miss", cache1)
			}
			cache2, body2 := post(v2)
			if cache2 != "hit" {
				t.Errorf("schema-2 request: X-Cache = %q, want hit — upgrade cold-started the cache", cache2)
			}
			if !bytes.Equal(body1, body2) {
				t.Errorf("v1 and schema-2 responses differ:\n  v1: %s\n  v2: %s", body1, body2)
			}
		})
	}
}

// TestSpecCorpusGoldenResults is the behavioral half of the upgrade
// contract: posting each committed WCET-exact v1 document against a live
// service must produce a response whose digest matches the committed
// golden — the simulated results themselves, not just the cache keys,
// are byte-stable across releases. The stochastic-execution subsystem
// rides behind strictly opt-in members (task_model, task_params, sleep),
// so no corpus document may ever move.
// -update regenerates testdata/specs/results.golden.
func TestSpecCorpusGoldenResults(t *testing.T) {
	srv := httptest.NewServer(service.New(service.Options{Workers: 2}).Handler())
	defer srv.Close()

	var lines []string
	for _, name := range corpusFiles(t) {
		base := filepath.Base(name)
		raw, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		endpoint := srv.URL + "/v1/sim"
		if strings.HasPrefix(base, "sweep_") {
			endpoint = srv.URL + "/v1/sweep"
		}
		resp, err := http.Post(endpoint, "application/json", bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		_, err = buf.ReadFrom(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: POST %s: %d: %s", base, endpoint, resp.StatusCode, buf.String())
		}
		lines = append(lines, fmt.Sprintf("%s %s", base, digest.Compact(buf.Bytes())))
	}
	got := strings.Join(lines, "\n") + "\n"

	goldenPath := filepath.Join(specDir, "results.golden")
	if *updateGolden {
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden file (run `go test -run TestSpecCorpusGoldenResults -update .`): %v", err)
	}
	if got != string(want) {
		t.Errorf("corpus results drifted from %s — a v1 document no longer simulates to the same bytes.\ngot:\n%swant:\n%s",
			goldenPath, got, want)
	}
}

// eventStreamFiles returns the /v1/sim documents whose event streams
// events.golden pins: the v1 corpus's sim_*.json plus the schema-2
// documents under v2/, which reach the stochastic, reclaiming and sleep
// paths a v1 document cannot name.
func eventStreamFiles(t *testing.T) []string {
	t.Helper()
	var names []string
	for _, pattern := range []string{"sim_*.json", "v2/sim_*.json"} {
		m, err := filepath.Glob(filepath.Join(specDir, pattern))
		if err != nil {
			t.Fatal(err)
		}
		sort.Strings(m)
		names = append(names, m...)
	}
	return names
}

// TestSpecCorpusGoldenEvents pins the bytes of the JSONL event stream
// (POST /v1/sim?events=1) of every sim document against
// testdata/specs/events.golden, so an encoder change that moves a single
// byte of any line fails here. The corpus must between them emit every
// reason code and every event kind a valid config can reach (invariant
// events need a corrupted substrate, which no wire config can build).
// -update regenerates the golden.
func TestSpecCorpusGoldenEvents(t *testing.T) {
	srv := httptest.NewServer(service.New(service.Options{Workers: 2}).Handler())
	defer srv.Close()

	seen := map[string]bool{}
	var lines []string
	for _, name := range eventStreamFiles(t) {
		rel, err := filepath.Rel(specDir, name)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(srv.URL+"/v1/sim?events=1", "application/json", bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		_, err = buf.ReadFrom(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %d: %s", rel, resp.StatusCode, buf.String())
		}
		if _, err := obs.CheckJSONL(bytes.NewReader(buf.Bytes())); err != nil {
			t.Fatalf("%s: %v", rel, err)
		}
		for _, line := range bytes.Split(bytes.TrimSuffix(buf.Bytes(), []byte("\n")), []byte("\n")) {
			var head struct{ Kind, Reason string }
			if err := json.Unmarshal(line, &head); err != nil {
				t.Fatalf("%s: %v", rel, err)
			}
			seen["kind "+head.Kind] = true
			seen["reason "+head.Reason] = true
		}
		lines = append(lines, fmt.Sprintf("%s %x", filepath.ToSlash(rel), sha256.Sum256(buf.Bytes())))
	}
	for _, k := range obs.KnownEventKinds() {
		if !seen["kind "+string(k)] && k != obs.KindInvariant {
			t.Errorf("no corpus stream emits event kind %q", k)
		}
	}
	for _, r := range obs.KnownReasons() {
		if !seen["reason "+string(r)] {
			t.Errorf("no corpus stream emits reason code %q", r)
		}
	}
	got := strings.Join(lines, "\n") + "\n"

	goldenPath := filepath.Join(specDir, "events.golden")
	if *updateGolden {
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden file (run `go test -run TestSpecCorpusGoldenEvents -update .`): %v", err)
	}
	if got != string(want) {
		t.Errorf("event streams drifted from %s — a JSONL line changed bytes.\ngot:\n%swant:\n%s",
			goldenPath, got, want)
	}
}

// TestV2KeysMatchConfigTags cross-checks spec.V2Keys against the
// eadvfs.Config JSON tags by reflection, so the wire gate and the struct
// can't drift: every lowercase-tagged member other than "schema" must be
// declared a v2 key, and every v2 key must exist on the struct.
func TestV2KeysMatchConfigTags(t *testing.T) {
	tagged := map[string]bool{}
	rt := reflect.TypeOf(eadvfs.Config{})
	for i := 0; i < rt.NumField(); i++ {
		tag := rt.Field(i).Tag.Get("json")
		name, _, _ := strings.Cut(tag, ",")
		if name == "" || name == "-" || name == "schema" {
			continue
		}
		tagged[name] = true
	}
	for _, k := range spec.V2Keys {
		if !tagged[k] {
			t.Errorf("spec.V2Keys lists %q but eadvfs.Config has no such json tag", k)
		}
		delete(tagged, k)
	}
	for name := range tagged {
		t.Errorf("eadvfs.Config tags member %q but spec.V2Keys does not list it — an old server would silently drop it", name)
	}
}
