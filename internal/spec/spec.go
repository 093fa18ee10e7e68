// Package spec versions the wire JSON the CLIs and the HTTP service
// accept.
//
// Version history:
//
//   - v1 (implicit): the original unversioned eadvfs.Config /
//     experiment.Spec JSON — capitalized Go field names, no "schema"
//     member.
//   - v2: adds the explicit "schema": 2 marker plus the registry-era
//     members "policy_params", "task_model" and "task_params"
//     (self-describing parameter payloads resolved through
//     internal/registry) and the DPM preset "sleep". A document using
//     any v2-only member without declaring "schema": 2 is an error,
//     never a silent reinterpretation.
//
// CheckWire is the package's version gate: the service runs every
// request body through it before the strict typed decode, Decode.
//
// The digest contract lives in the service, not here: handleSim and
// handleSweep zero the decoded Schema field before the canonical
// json.Marshal whose digest.Compact keys the result cache, so a v1
// document and its "schema": 2 spelling share one cache entry and one
// fleet affinity route. The config_digest inside each response that
// testdata/specs/results.golden pins fixes those keys for the corpus.
package spec

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
)

// Current is the schema version this build writes and the highest it
// accepts.
const Current = 2

// V2Keys are the members only a "schema": 2 document may use. Their
// presence in an unversioned (v1) document is an explicit error: an old
// server must reject what it would misread, not quietly drop it.
// A root-level test cross-checks this list against the eadvfs.Config
// JSON tags so the two can't drift apart.
var V2Keys = []string{"policy_params", "task_model", "task_params", "sleep"}

// member is one top-level object member, in document order.
type member struct {
	key string
	val json.RawMessage
}

// parse splits a top-level JSON object into its ordered members. It
// rejects non-objects, malformed JSON, trailing data and duplicate
// "schema" members (a duplicate would make the version ambiguous;
// other duplicate keys are passed through — encoding/json's
// last-wins decoding handles them downstream exactly as before).
func parse(raw []byte) ([]member, error) {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	tok, err := dec.Token()
	if err != nil {
		return nil, fmt.Errorf("spec: invalid JSON: %w", err)
	}
	if d, ok := tok.(json.Delim); !ok || d != '{' {
		return nil, fmt.Errorf("spec: document is not a JSON object")
	}
	var members []member
	sawSchema := false
	for dec.More() {
		keyTok, err := dec.Token()
		if err != nil {
			return nil, fmt.Errorf("spec: invalid JSON: %w", err)
		}
		key, ok := keyTok.(string)
		if !ok {
			return nil, fmt.Errorf("spec: invalid JSON: non-string object key")
		}
		if key == "schema" {
			if sawSchema {
				return nil, fmt.Errorf("spec: duplicate %q member", "schema")
			}
			sawSchema = true
		}
		var val json.RawMessage
		if err := dec.Decode(&val); err != nil {
			return nil, fmt.Errorf("spec: invalid JSON: %w", err)
		}
		members = append(members, member{key: key, val: val})
	}
	if _, err := dec.Token(); err != nil {
		return nil, fmt.Errorf("spec: invalid JSON: %w", err)
	}
	// More would miss a stray '}' or ']' after the document; only the
	// end of the input may follow it.
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("spec: trailing data after document")
	}
	return members, nil
}

// Decode reads one JSON document into v strictly: an unknown member (a
// typo such as "capcity") or anything but the end of the input after the
// document is an error, not a silently different value. Every typed
// decode of a wire or file document goes through it.
func Decode(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	// As in parse: More would miss a stray '}' or ']'.
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("trailing data after the document")
	}
	return nil
}

// versionOf extracts the schema version from parsed members: absent
// means v1; present, it must be a JSON integer in [1, Current].
func versionOf(members []member) (int, error) {
	for _, m := range members {
		if m.key != "schema" {
			continue
		}
		// json.Number would happily decode a quoted "2"; require a bare
		// JSON number literal.
		var n json.Number
		if len(m.val) == 0 || m.val[0] == '"' || json.Unmarshal(m.val, &n) != nil {
			return 0, fmt.Errorf("spec: %q member is not a number", "schema")
		}
		v, err := n.Int64()
		if err != nil {
			return 0, fmt.Errorf("spec: %q member %s is not an integer", "schema", n)
		}
		switch {
		case v < 1:
			return 0, fmt.Errorf("spec: schema version %d < 1", v)
		case v > Current:
			return 0, fmt.Errorf("spec: schema version %d is newer than this build supports (max %d)", v, Current)
		}
		return int(v), nil
	}
	return 1, nil
}

// checkV2Keys rejects v2-only members in a document declaring an older
// (or no) version.
func checkV2Keys(members []member, version int) error {
	if version >= 2 {
		return nil
	}
	for _, m := range members {
		for _, k := range V2Keys {
			if m.key == k {
				return fmt.Errorf("spec: member %q requires %q: 2 (document is schema %d)", k, "schema", version)
			}
		}
	}
	return nil
}

// CheckWire validates the version declaration of a wire document: the
// top-level "schema" member (absent → 1) must be an integer this build
// speaks, and v2-only members — at top level or inside any of the named
// nested object members (e.g. "spec" for sweep requests, which nest the
// simulation spec one level down) — require the declaration. It returns
// the declared version.
func CheckWire(raw []byte, nested ...string) (int, error) {
	members, err := parse(raw)
	if err != nil {
		return 0, err
	}
	v, err := versionOf(members)
	if err != nil {
		return 0, err
	}
	if err := checkV2Keys(members, v); err != nil {
		return 0, err
	}
	for _, name := range nested {
		for _, m := range members {
			if m.key != name || len(m.val) == 0 || m.val[0] != '{' {
				continue
			}
			inner, err := parse(m.val)
			if err != nil {
				return 0, err
			}
			if err := checkV2Keys(inner, v); err != nil {
				return 0, fmt.Errorf("spec: member %q: %w", name, err)
			}
		}
	}
	return v, nil
}
