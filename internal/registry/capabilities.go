package registry

import (
	"github.com/eadvfs/eadvfs/internal/cpu"
	"github.com/eadvfs/eadvfs/internal/spec"
)

// Capability is the wire form of one registration: its name, help text
// and parameter schema, exactly as registered. GET /v1/capabilities
// serves a Capabilities document so a fleet coordinator (eactl, fabric)
// can enumerate what a worker build supports without guessing.
type Capability struct {
	Name   string  `json:"name"`
	Help   string  `json:"help,omitempty"`
	Params []Param `json:"params,omitempty"`
}

// Capabilities is the registry's wire snapshot. Ordering is registration
// order, so two identical builds serve byte-identical documents.
type Capabilities struct {
	Schema     int          `json:"schema"` // spec schema version this build speaks
	Policies   []Capability `json:"policies"`
	Sources    []Capability `json:"sources"`
	Predictors []Capability `json:"predictors"`
	TaskModels []Capability `json:"task_models"`

	// SleepPresets names the DPM configurations the v2 "sleep" spec
	// member accepts (cpu.SleepPresetNames) — not a registry axis, but
	// part of what a coordinator must know to plan sleep ablations.
	SleepPresets []string `json:"sleep_presets"`
}

// Snapshot captures the current registry as a Capabilities document.
func Snapshot() Capabilities {
	return Capabilities{
		Schema:       spec.Current,
		Policies:     policies.capabilities(),
		Sources:      sources.capabilities(),
		Predictors:   predictors.capabilities(),
		TaskModels:   taskModels.capabilities(),
		SleepPresets: cpu.SleepPresetNames(),
	}
}
