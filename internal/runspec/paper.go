package runspec

import (
	"bytes"
	"embed"
	"fmt"

	"github.com/eadvfs/eadvfs/internal/spec"
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
	if err := spec.Decode(bytes.NewReader(blob), &s); err != nil {
		return nil, err
	}
	return &s, nil
}
