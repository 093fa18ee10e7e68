package spec

import (
	"bytes"
	"testing"
)

// FuzzMigrateSpec drives arbitrary bytes through the version/migrate
// pipeline. Invariants, regardless of input:
//
//   - nothing panics;
//   - CheckWire (the gate every service request body goes through) and
//     Migrate agree on acceptance (both succeed or both fail);
//   - a successful Migrate yields a document that (a) declares the
//     current version, (b) is idempotent under a second Migrate, and
//     (c) keeps the digest form byte-identical to the input's —
//     migration must NEVER silently change what a cache key hashes.
//
// The committed seed corpus (testdata/fuzz/FuzzMigrateSpec/) covers
// malformed versions, unknown fields, duplicate keys and mixed v1/v2
// member sets so `go test` exercises the interesting branches even
// without -fuzz.
func FuzzMigrateSpec(f *testing.F) {
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
		vErr := func() error { _, err := CheckWire(raw); return err }()
		migrated, mErr := Migrate(raw)
		if (vErr == nil) != (mErr == nil) {
			t.Fatalf("CheckWire err %v but Migrate err %v for %q", vErr, mErr, raw)
		}
		if mErr != nil {
			return
		}
		v, err := CheckWire(migrated)
		if err != nil {
			t.Fatalf("migrated document rejected: %v (from %q to %q)", err, raw, migrated)
		}
		if v != Current {
			t.Fatalf("migrated version = %d, want %d", v, Current)
		}
		again, err := Migrate(migrated)
		if err != nil {
			t.Fatalf("re-migration failed: %v", err)
		}
		if !bytes.Equal(again, migrated) {
			t.Fatalf("Migrate not idempotent: %q then %q", migrated, again)
		}
		d1, err := Digest(raw)
		if err != nil {
			t.Fatalf("Digest(original) failed after successful Migrate: %v", err)
		}
		d2, err := Digest(migrated)
		if err != nil {
			t.Fatalf("Digest(migrated) failed: %v", err)
		}
		if d1 != d2 {
			t.Fatalf("migration changed the digest of %q: %s != %s", raw, d1, d2)
		}
	})
}
