package main

import (
	"strings"
	"testing"
)

// An unknown dataset name is an error that names it, not a crash.
func TestRunUnknownDataset(t *testing.T) {
	var out strings.Builder
	err := run([]string{"Beer", "NoSuch"}, &out)
	if err == nil || !strings.Contains(err.Error(), "NoSuch") {
		t.Fatalf("err = %v, want an error naming NoSuch", err)
	}
	if lines := strings.Count(out.String(), "\n"); lines != 2 {
		t.Errorf("wrote %d lines before the unknown dataset, want Beer's 2:\n%s", lines, out.String())
	}
}
