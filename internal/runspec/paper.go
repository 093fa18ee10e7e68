package runspec

import (
	"bytes"
	"embed"
	"encoding/json"
	"errors"
	"fmt"
	"io"
)

// paperDocs holds the paper's two worked examples, §2 / Figure 1 and
// §4.3 / Figure 3, as run documents. Each names "ea-dvfs"; callers that
// compare policies replace Policy.
//
//go:embed paper/*.json
var paperDocs embed.FS

// Paper returns a fresh copy of one of the paper's worked examples, "fig1"
// or "fig3".
func Paper(name string) (*Spec, error) {
	blob, err := paperDocs.ReadFile("paper/" + name + ".json")
	if err != nil {
		return nil, fmt.Errorf("runspec: unknown paper example %q (want fig1 or fig3)", name)
	}
	var s Spec
	if err := Decode(bytes.NewReader(blob), &s); err != nil {
		return nil, err
	}
	return &s, nil
}

// Decode reads one document into v (a *Spec, or a type embedding one)
// strictly: an unknown member (a typo such as "capcity") or trailing data
// is an error, not a silently different run.
func Decode(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("trailing data after the document")
	}
	return nil
}
