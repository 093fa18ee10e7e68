package workload

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// ReadSlotCSV parses a measured per-slot CPU-usage trace into the ratio
// slots of a "trace" execution distribution (task.ExecSpec.Slots): one
// row per slot in order, a header row required, and the utilization
// column named column (other columns are ignored — profiler exports
// carry timestamps and core IDs alongside). Values may be fractions in
// [0, 1] or percents in [0, 100]: when any value exceeds 1 the whole
// column is taken as percent and divided by 100. Negative, NaN and
// infinite entries are parse errors with their line number — a
// spelled-out "NaN" must surface here, not as a validation panic
// downstream.
func ReadSlotCSV(r io.Reader, column string) ([]float64, error) {
	cr := csv.NewReader(r)
	cr.TrimLeadingSpace = true
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("workload: reading slot header: %w", err)
	}
	col := -1
	for i, h := range header {
		if strings.EqualFold(strings.TrimSpace(h), column) {
			col = i
			break
		}
	}
	if col == -1 {
		return nil, fmt.Errorf("workload: column %q not in header %v", column, header)
	}
	var slots []float64
	percent := false
	for line := 2; ; line++ {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("workload: reading slot line %d: %w", line, err)
		}
		if col >= len(rec) {
			return nil, fmt.Errorf("workload: line %d has %d columns, need %d", line, len(rec), col+1)
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(rec[col]), 64)
		if err != nil {
			return nil, fmt.Errorf("workload: line %d: %w", line, err)
		}
		if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("workload: line %d: invalid utilization %v", line, v)
		}
		if v > 1 {
			percent = true
		}
		slots = append(slots, v)
	}
	if len(slots) == 0 {
		return nil, fmt.Errorf("workload: slot trace has no samples")
	}
	if percent {
		for i, v := range slots {
			if v > 100 {
				return nil, fmt.Errorf("workload: slot %d: utilization %v%% exceeds 100%%", i, v)
			}
			slots[i] = v / 100
		}
	}
	return slots, nil
}
