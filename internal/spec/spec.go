// Package spec versions the wire JSON the CLIs and the HTTP service
// accept, and migrates old documents forward.
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
// The contract that makes upgrades free: the "schema" member is
// excluded from the document's digest identity (Strip), and a v1→v2
// migration changes nothing else, so digest.Compact keys — and with
// them the service LRU cache, fabric worker caches and the fleet
// affinity ring — stay byte-stable across the upgrade. Migrate
// preserves member order byte-for-byte precisely so this is provable:
// Strip(Migrate(doc)) == Strip(doc) for every valid v1 document
// (golden-tested against the corpus under testdata/specs/ and fuzzed
// by FuzzMigrateSpec).
package spec

import (
	"bytes"
	"encoding/json"
	"fmt"

	"github.com/eadvfs/eadvfs/internal/digest"
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

// member is one top-level object member with its original order
// preserved and its value compacted but otherwise untouched.
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
		compact := &bytes.Buffer{}
		if err := json.Compact(compact, val); err != nil {
			return nil, fmt.Errorf("spec: invalid JSON: %w", err)
		}
		members = append(members, member{key: key, val: append(json.RawMessage(nil), compact.Bytes()...)})
	}
	if _, err := dec.Token(); err != nil {
		return nil, fmt.Errorf("spec: invalid JSON: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("spec: trailing data after document")
	}
	return members, nil
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

// render serializes members back to one compact JSON object in order.
func render(members []member) []byte {
	buf := &bytes.Buffer{}
	buf.WriteByte('{')
	for i, m := range members {
		if i > 0 {
			buf.WriteByte(',')
		}
		k, _ := json.Marshal(m.key)
		buf.Write(k)
		buf.WriteByte(':')
		buf.Write(m.val)
	}
	buf.WriteByte('}')
	return buf.Bytes()
}

// Migrate rewrites a valid document to the current schema version. All
// members except "schema" are preserved byte-for-byte in their original
// order (values in compact form), and "schema": 2 is appended last —
// so Strip(Migrate(doc)) == Strip(doc), the digest-stability invariant
// every cache layer depends on. Migrating an already-current document
// is idempotent: it returns the same canonical bytes.
func Migrate(raw []byte) ([]byte, error) {
	members, err := parse(raw)
	if err != nil {
		return nil, err
	}
	v, err := versionOf(members)
	if err != nil {
		return nil, err
	}
	if err := checkV2Keys(members, v); err != nil {
		return nil, err
	}
	out := make([]member, 0, len(members)+1)
	for _, m := range members {
		if m.key == "schema" {
			continue
		}
		out = append(out, m)
	}
	out = append(out, member{key: "schema", val: json.RawMessage(fmt.Sprintf("%d", Current))})
	return render(out), nil
}

// Strip returns the document's digest form: compact JSON with the
// "schema" member removed and every other member untouched in order.
// This is what the schema-version contract hashes — two documents that
// differ only in schema declaration share a digest, and with it every
// cached result.
func Strip(raw []byte) ([]byte, error) {
	members, err := parse(raw)
	if err != nil {
		return nil, err
	}
	out := make([]member, 0, len(members))
	for _, m := range members {
		if m.key == "schema" {
			continue
		}
		out = append(out, m)
	}
	return render(out), nil
}

// Digest returns the digest.Compact key of the document's digest form.
// It errors on documents Strip rejects.
func Digest(raw []byte) (string, error) {
	stripped, err := Strip(raw)
	if err != nil {
		return "", err
	}
	return digest.Compact(stripped), nil
}
