// Package digest computes the repository's canonical configuration
// digest: the lowercase-hex SHA-256 of the compact (whitespace-free) form
// of a JSON document. It is the identity that ties a result artifact to
// the exact configuration that produced it — run manifests (internal/obs)
// have recorded it since the observability layer landed, and the
// simulation service (internal/service) keys its result cache with it, so
// a cached service response and a manifest written by easim for the same
// configuration carry the same digest.
//
// The digest is computed over the compact form so it survives
// re-indentation by pretty printers (a manifest written with MarshalIndent
// hashes identically to the original compact bytes). Input that is not valid JSON
// is hashed verbatim — callers that digest arbitrary bytes get a stable
// answer instead of an error.
package digest

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
)

// Compact returns the lowercase-hex SHA-256 of the compact
// (whitespace-free) form of raw. Invalid JSON is hashed verbatim.
func Compact(raw []byte) string {
	var buf bytes.Buffer
	if err := json.Compact(&buf, raw); err == nil {
		raw = buf.Bytes()
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:])
}
