package spec

import (
	"strings"
	"testing"
)

func TestVersion(t *testing.T) {
	cases := []struct {
		name    string
		doc     string
		want    int
		errPart string // substring expected in the error, "" for success
	}{
		{"unversioned is v1", `{"Policy":"edf"}`, 1, ""},
		{"explicit v1", `{"schema":1,"Policy":"edf"}`, 1, ""},
		{"explicit v2", `{"schema":2,"policy_params":{"utilization":0.5}}`, 2, ""},
		{"empty object", `{}`, 1, ""},
		{"whitespace tolerated", " {\n\t\"schema\": 2 } ", 2, ""},
		{"not an object", `[1,2]`, 0, "not a JSON object"},
		{"scalar document", `42`, 0, "not a JSON object"},
		{"malformed", `{"Policy":`, 0, "invalid JSON"},
		{"trailing data", `{"schema":2}{"x":1}`, 0, "trailing data"},
		{"trailing close brace", `{"schema":2}}`, 0, "trailing data"},
		{"duplicate schema", `{"schema":2,"schema":2}`, 0, "duplicate"},
		{"string version", `{"schema":"2"}`, 0, "not a number"},
		{"fractional version", `{"schema":1.5}`, 0, "not an integer"},
		{"version zero", `{"schema":0}`, 0, "< 1"},
		{"negative version", `{"schema":-1}`, 0, "< 1"},
		{"future version", `{"schema":3}`, 0, "newer than this build"},
		{"v2 key in unversioned doc", `{"policy_params":{"utilization":0.5}}`, 0, `requires "schema": 2`},
		{"v2 key in explicit v1 doc", `{"schema":1,"task_model":"periodic"}`, 0, `requires "schema": 2`},
		{"v2 key with declaration ok", `{"schema":2,"task_params":{"periods":[10]}}`, 2, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			v, err := CheckWire([]byte(tc.doc))
			if tc.errPart == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				if v != tc.want {
					t.Fatalf("CheckWire = %d, want %d", v, tc.want)
				}
				return
			}
			if err == nil {
				t.Fatalf("want error containing %q, got version %d", tc.errPart, v)
			}
			if !strings.Contains(err.Error(), tc.errPart) {
				t.Fatalf("error %q does not contain %q", err, tc.errPart)
			}
		})
	}
}

// Decode accepts exactly one document with known members: a stray
// closing brace (which json.Decoder.More reports as no further value),
// any other trailing token and an unknown member are errors.
func TestDecodeStrict(t *testing.T) {
	type doc struct{ Horizon float64 }
	for _, tc := range []struct {
		name, in, errPart string
	}{
		{"one document", `{"Horizon":1}`, ""},
		{"trailing whitespace", "{\"Horizon\":1} \n\t", ""},
		{"trailing close brace", `{"Horizon":1}}`, "trailing data"},
		{"trailing close bracket", `{"Horizon":1}]`, "trailing data"},
		{"trailing word", `{"Horizon":1} x`, "trailing data"},
		{"second document", `{"Horizon":1}{"Horizon":2}`, "trailing data"},
		{"unknown member", `{"Horizon":1,"Horizn":2}`, "unknown field"},
		{"malformed", `{"Horizon":`, "unexpected EOF"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var d doc
			err := Decode(strings.NewReader(tc.in), &d)
			if tc.errPart == "" {
				if err != nil || d.Horizon != 1 {
					t.Fatalf("Decode = %+v, %v", d, err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.errPart) {
				t.Fatalf("want an error containing %q, got %v", tc.errPart, err)
			}
		})
	}
}

func TestCheckWireNested(t *testing.T) {
	// A sweep request nests the simulation spec under "spec": v2-only
	// members inside it need the top-level declaration too.
	bad := []byte(`{"spec":{"task_model":"periodic"},"replications":2}`)
	if _, err := CheckWire(bad, "spec"); err == nil {
		t.Fatal("nested v2 key in unversioned request accepted")
	}
	good := []byte(`{"schema":2,"spec":{"task_model":"periodic"},"replications":2}`)
	if v, err := CheckWire(good, "spec"); err != nil || v != 2 {
		t.Fatalf("CheckWire = %d, %v; want 2, nil", v, err)
	}
	// Without the nested hint the same document passes — the caller opts
	// into deep checking per member name.
	if _, err := CheckWire(bad); err != nil {
		t.Fatalf("top-level-only check rejected clean top level: %v", err)
	}
	// A non-object "spec" member is ignored by the nested walk.
	if _, err := CheckWire([]byte(`{"spec":"inline"}`), "spec"); err != nil {
		t.Fatalf("scalar nested member rejected: %v", err)
	}
}
