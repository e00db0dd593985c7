package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"consolidation/internal/oracle"
)

// TestReplayLineNamesCheckAndEvents: a churn row runs only on its own seeds
// and replays a trace of -events steps, so the reproducer's replay line must
// carry both or the failure does not replay.
func TestReplayLineNamesCheckAndEvents(t *testing.T) {
	var shard *oracle.Check
	for i := range oracle.Checks {
		if oracle.Checks[i].Name == "shard" {
			shard = &oracle.Checks[i]
		}
	}
	if shard == nil {
		t.Fatal("no shard row in oracle.Checks")
	}
	f := &oracle.Failure{Check: oracle.CheckShard, Seed: 6, Msg: "planted", Events: 9}
	dir, err := writeReproducer(t.TempDir(), shard, f, 9)
	if err != nil {
		t.Fatal(err)
	}
	readme, err := os.ReadFile(filepath.Join(dir, "README.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if want := "go run ./cmd/oracle -n 1 -seed 6 -checks shard -events 9\n"; !strings.Contains(string(readme), want) {
		t.Fatalf("replay line missing %q:\n%s", want, readme)
	}
	if !shard.Selects(6) {
		t.Fatal("the replay seed is not one the shard row runs on")
	}
}
