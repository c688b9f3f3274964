package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"teleadjust/internal/experiment"
)

// TestEveryScenarioIsATopology: each name in the scenario table builds a
// valid deployment, and -topology accepts it and prints every node.
func TestEveryScenarioIsATopology(t *testing.T) {
	for _, s := range experiment.Scenarios {
		dep := s.Build(1).Dep
		if err := dep.Validate(); err != nil {
			t.Errorf("%s: %v", s.Name, err)
			continue
		}
		var out bytes.Buffer
		if err := run([]string{"-topology", s.Name}, &out); err != nil {
			t.Errorf("-topology %s: %v", s.Name, err)
			continue
		}
		head := fmt.Sprintf("# topology %s seed 1: %d nodes, sink %d\n", dep.Name, dep.Len(), dep.Sink)
		if !strings.HasPrefix(out.String(), head) {
			t.Errorf("-topology %s printed %.60q, want header %q", s.Name, out.String(), head)
		}
		if lines := strings.Count(out.String(), "\n"); lines != dep.Len()+3 {
			t.Errorf("-topology %s printed %d lines, want %d", s.Name, lines, dep.Len()+3)
		}
	}
	if err := run([]string{"-topology", "bogus"}, &bytes.Buffer{}); err == nil || !strings.Contains(err.Error(), "unknown scenario") {
		t.Errorf("-topology bogus: error %v", err)
	}
}
