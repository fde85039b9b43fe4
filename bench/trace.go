package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed interval at a layer boundary, recorded from outside the
// layer. Parent is the ID of the span that caused it (-1 = none) and Request
// indexes the traced phase's samples (-1 = not attributable to one request).
// Spans are kept in memory during the run and written once at its end.
type span struct {
	ID      int    `json:"id"`
	Name    string `json:"name"`
	Parent  int    `json:"parent"`
	Request int    `json:"request"`
	StartUs int64  `json:"start_us"`
	EndUs   int64  `json:"end_us"`

	start, end time.Time
}

// writeSpans stamps spans relative to the earliest one and writes them to
// dir/trace_<workload>.json.
func writeSpans(dir, workload string, spans []span) error {
	if len(spans) == 0 {
		return nil
	}
	origin := spans[0].start
	for _, s := range spans {
		if s.start.Before(origin) {
			origin = s.start
		}
	}
	for i := range spans {
		spans[i].StartUs = spans[i].start.Sub(origin).Microseconds()
		spans[i].EndUs = spans[i].end.Sub(origin).Microseconds()
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("trace dir: %w", err)
	}
	data, err := json.Marshal(spans)
	if err != nil {
		return fmt.Errorf("encode spans: %w", err)
	}
	path := filepath.Join(dir, "trace_"+workload+".json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
