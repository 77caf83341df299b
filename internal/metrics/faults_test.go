package metrics

import (
	"math"
	"testing"
)

func TestSummarizeFaultAggregates(t *testing.T) {
	results := []JobResult{
		{ID: 1, Nodes: 4, Submit: 0, Start: 100, End: 200, Exec: 100,
			Requeues: 2, RequeuedAt: 90, LostSeconds: 45},
		{ID: 2, Nodes: 2, Submit: 0, Start: 0, End: 50, Exec: 50},
	}
	s := Summarize(results)
	if s.Requeues != 2 {
		t.Fatalf("Requeues = %d, want 2", s.Requeues)
	}
	want := 4 * 45.0 / 3600
	if math.Abs(s.LostNodeHours-want) > 1e-12 {
		t.Fatalf("LostNodeHours = %v, want %v", s.LostNodeHours, want)
	}
}

func TestSummarizeNoFaultsZero(t *testing.T) {
	s := Summarize([]JobResult{{ID: 1, Nodes: 1, Exec: 10, End: 10}})
	if s.Requeues != 0 || s.LostNodeHours != 0 {
		t.Fatalf("fault-free run reported Requeues=%d LostNodeHours=%v",
			s.Requeues, s.LostNodeHours)
	}
}
