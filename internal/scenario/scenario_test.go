package scenario_test

import (
	"context"
	"net/http"
	"testing"
	"time"

	"repro/internal/scenario"
)

// TestRegistryCoverage pins the conformance surface: at least twelve
// scenarios spanning the four required workload classes, every spec
// well-formed enough to have survived Register.
func TestRegistryCoverage(t *testing.T) {
	specs := scenario.All()
	if len(specs) < 12 {
		t.Fatalf("registry holds %d scenarios, want at least 12", len(specs))
	}
	classes := map[string]int{}
	for _, s := range specs {
		classes[s.Class]++
	}
	for _, class := range []string{
		scenario.ClassNominal, scenario.ClassASR, scenario.ClassMultiTurn, scenario.ClassFault,
		scenario.ClassCache,
	} {
		if classes[class] == 0 {
			t.Errorf("no scenario in required class %q (have %v)", class, classes)
		}
	}
	if scenario.ByName(specs[0].Name) != specs[0] {
		t.Error("ByName does not resolve a registered spec")
	}
}

// TestScenariosInProcess executes every registered scenario through the
// in-process runner, in parallel — the registry-driven conformance bundle
// CI runs under -race.
func TestScenariosInProcess(t *testing.T) {
	for _, spec := range scenario.All() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			violations, err := scenario.Run(context.Background(), spec)
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			for _, v := range violations {
				t.Error(v.String())
			}
		})
	}
}

// TestScenariosLive executes every registered scenario through the live
// runner against pooled in-process servers — the same specs, now checking
// the HTTP admission contracts. It is the live runner's only driver.
// Skipped in -short mode: the fault profiles sleep real milliseconds per
// row.
func TestScenariosLive(t *testing.T) {
	if testing.Short() {
		t.Skip("live scenario pool skipped in -short mode")
	}
	pool := scenario.NewServerPool()
	defer pool.Close()
	client := &http.Client{Timeout: 30 * time.Second}
	for _, spec := range scenario.All() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			violations, err := scenario.RunLive(context.Background(), client, pool, spec)
			if err != nil {
				t.Fatalf("run live: %v", err)
			}
			for _, v := range violations {
				t.Error(v.String())
			}
		})
	}
}
