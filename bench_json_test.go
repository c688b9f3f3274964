package teleadjust

import (
	"path/filepath"
	"testing"

	"teleadjust/internal/benchjson"
)

// TestCommittedBenchRecordsValidate holds every committed BENCH_*.json
// to the shared benchjson schema: one envelope, a complete environment
// (gomaxprocs included — replication numbers are meaningless without
// it), and non-empty sections. A record that drifts from the schema
// fails here, not when someone tries to diff runs months later.
func TestCommittedBenchRecordsValidate(t *testing.T) {
	paths, err := filepath.Glob("BENCH_*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) < 3 {
		t.Fatalf("found %d BENCH_*.json records, want at least scale, telemetry and speed", len(paths))
	}
	for _, path := range paths {
		rec, err := benchjson.Load(path)
		if err != nil {
			t.Errorf("%s: %v", path, err)
			continue
		}
		if rec.Environment.GOMAXPROCS < 1 {
			t.Errorf("%s: gomaxprocs %d", path, rec.Environment.GOMAXPROCS)
		}
		t.Logf("%s: %d section(s): %v", path, len(rec.Sections), rec.SectionNames())
	}
}
