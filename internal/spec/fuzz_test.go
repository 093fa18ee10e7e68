package spec

import (
	"encoding/json"
	"testing"
)

// FuzzCheckWire drives arbitrary bytes through the wire-version gate
// every service request body goes through. Invariants, regardless of
// input:
//
//   - nothing panics;
//   - an accepted document declares a version in [1, Current];
//   - a document accepted as v1 has no V2Keys member at top level;
//   - the nested walk only adds rejections: a document accepted with
//     "spec" checked one level down is accepted, at the same version,
//     without it.
//
// The committed seed corpus (testdata/fuzz/FuzzCheckWire/) covers
// malformed versions, unknown fields, duplicate keys and mixed v1/v2
// member sets so `go test` exercises the interesting branches even
// without -fuzz.
func FuzzCheckWire(f *testing.F) {
	seeds := []string{
		`{}`,
		`{"Policy":"ea-dvfs","Capacity":500}`,
		`{"schema":1,"Policy":"edf"}`,
		`{"schema":2,"policy_params":{"utilization":0.5}}`,
		`{"schema":2,"task_model":"periodic","task_params":{"periods":[10,20]}}`,
		`{"policy_params":{}}`,                    // v2 key without declaration
		`{"schema":1,"task_model":"periodic"}`,    // v2 key in explicit v1
		`{"schema":3}`,                            // future version
		`{"schema":0}`,                            // below range
		`{"schema":-9}`,                           // negative
		`{"schema":1.5}`,                          // fractional
		`{"schema":"2"}`,                          // string version
		`{"schema":null}`,                         // null version
		`{"schema":2,"schema":2}`,                 // duplicate declaration
		`{"Policy":"x","Policy":"y"}`,             // duplicate ordinary key
		`{"UnknownField":{"deep":[1,{"k":2}]}}`,   // unknown nested structure
		`[{"schema":2}]`,                          // array, not object
		`"schema"`,                                // bare string
		`{"Policy":`,                              // truncated
		`{"schema":2}{"schema":2}`,                // trailing document
		"{\"schema\":\n 2 ,\n \"Horizon\": 1200}", // whitespace layout
		`{"schema":9223372036854775807}`,          // int64 max
		`{"schema":18446744073709551615}`,         // uint64 max (overflows int64)
		`{"Utilization":0.6,"HarvestTrace":[1e308,-0,0.1]}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		v, err := CheckWire(raw)
		if nv, nerr := CheckWire(raw, "spec"); nerr == nil && (err != nil || nv != v) {
			t.Fatalf("nested check accepted %q at version %d, top-level check gave %d, %v", raw, nv, v, err)
		}
		if err != nil {
			return
		}
		if v < 1 || v > Current {
			t.Fatalf("accepted %q at version %d outside [1, %d]", raw, v, Current)
		}
		if v != 1 {
			return
		}
		var top map[string]json.RawMessage
		if err := json.Unmarshal(raw, &top); err != nil {
			t.Fatalf("accepted %q, which is not a JSON object: %v", raw, err)
		}
		for _, k := range V2Keys {
			if _, ok := top[k]; ok {
				t.Fatalf("accepted %q as v1 with v2 member %q", raw, k)
			}
		}
	})
}
