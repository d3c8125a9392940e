package main

import (
	"encoding/json"
	"testing"
)

// The -invariants -json output is a stable schema: top-level probe fields
// plus the final report with one entry per registered checker.
func TestInvariantsJSONSchema(t *testing.T) {
	b, err := invariantsJSON()
	if err != nil {
		t.Fatal(err)
	}
	var obj map[string]json.RawMessage
	if err := json.Unmarshal(b, &obj); err != nil {
		t.Fatalf("output is not a JSON object: %v", err)
	}
	for _, key := range []string{"name", "machine", "invariant_runs", "findings", "final"} {
		if _, ok := obj[key]; !ok {
			t.Errorf("schema is missing %q (got keys %v)", key, keys(obj))
		}
	}
	var final struct {
		Procs    int `json:"procs"`
		Checkers []struct {
			Name     string `json:"name"`
			Findings int    `json:"findings"`
		} `json:"checkers"`
		Findings []json.RawMessage `json:"findings"`
	}
	if err := json.Unmarshal(obj["final"], &final); err != nil {
		t.Fatalf("final report: %v", err)
	}
	if len(final.Checkers) != 6 {
		t.Errorf("final report lists %d checkers, want 6", len(final.Checkers))
	}
	semantics := false
	for _, c := range final.Checkers {
		if c.Name == "gate-semantics" {
			semantics = true
		}
	}
	if !semantics {
		t.Error("final report is missing the gate-semantics checker")
	}
	if final.Procs == 0 {
		t.Error("final report covers no processes")
	}
	var runs int
	if err := json.Unmarshal(obj["invariant_runs"], &runs); err != nil || runs == 0 {
		t.Errorf("invariant_runs = %d (err %v), want > 0", runs, err)
	}
	var findings int
	if err := json.Unmarshal(obj["findings"], &findings); err != nil || findings != 0 {
		t.Errorf("findings = %d (err %v) on the clean probe", findings, err)
	}
}

func keys(m map[string]json.RawMessage) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}
