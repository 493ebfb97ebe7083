package bench_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"gogreen/internal/bench"
	"gogreen/internal/core"
)

// TestRegistryComplete: one experiment per paper artifact plus ablations.
func TestRegistryComplete(t *testing.T) {
	want := []string{"table3"}
	for i := 9; i <= 24; i++ {
		want = append(want, fmt.Sprintf("fig%d", i))
	}
	want = append(want, "ablation-utility", "ablation-singlegroup", "ablation-xiold", "ablation-engine", "ablation-incremental", "ablation-twostep", "ablation-dedup")
	for _, id := range want {
		if bench.ByID(id) == nil {
			t.Errorf("experiment %q not registered", id)
		}
	}
	if got := len(bench.All()); got != len(want) {
		t.Errorf("registry has %d experiments, want %d", got, len(want))
	}
	// Stable order: table3 first, figures in ascending order.
	all := bench.All()
	if all[0].ID != "table3" || all[1].ID != "fig9" || all[16].ID != "fig24" {
		ids := make([]string, len(all))
		for i, e := range all {
			ids[i] = e.ID
		}
		t.Errorf("order = %v", ids)
	}
	if bench.ByID("nope") != nil {
		t.Error("unknown id should be nil")
	}
}

// TestSpecs: every dataset spec is self-consistent.
func TestSpecs(t *testing.T) {
	if len(bench.Specs) != 4 {
		t.Fatalf("%d dataset specs, want 4", len(bench.Specs))
	}
	for _, s := range bench.Specs {
		if bench.SpecByName(s.Name) == nil {
			t.Errorf("SpecByName(%q) = nil", s.Name)
		}
		for _, xi := range s.Sweep {
			if xi >= s.XiOld {
				t.Errorf("%s: sweep point %g not below ξ_old %g", s.Name, xi, s.XiOld)
			}
		}
		if len(s.Sweep) == 0 || len(s.MemSweep) == 0 {
			t.Errorf("%s: empty sweep", s.Name)
		}
	}
	if bench.SpecByName("nope") != nil {
		t.Error("unknown spec")
	}
}

// tinyScale exercises experiment plumbing on minimum-size datasets.
const tinyScale = 0.0001

func runExp(t *testing.T, id string) string {
	t.Helper()
	e := bench.ByID(id)
	if e == nil {
		t.Fatalf("no experiment %q", id)
	}
	var buf bytes.Buffer
	if err := e.Run(bench.Config{Scale: tinyScale, TempDir: t.TempDir(), MaxPoints: 2}, &buf); err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	return buf.String()
}

func TestTable3Runs(t *testing.T) {
	out := runExp(t, "table3")
	for _, name := range []string{"weather", "forest", "connect4", "pumsb"} {
		if !strings.Contains(out, name) {
			t.Errorf("table3 output missing %s:\n%s", name, out)
		}
	}
	if !strings.Contains(out, "MCP") || !strings.Contains(out, "MLP") {
		t.Error("table3 missing strategies")
	}
}

// TestFigureRuns exercises one figure per family/kind at tiny scale; the
// harness itself asserts pattern-count equality between baseline and
// recycling runs, so passing means the comparisons are apples-to-apples.
func TestFigureRuns(t *testing.T) {
	for _, id := range []string{"fig9", "fig13", "fig16", "fig20"} {
		out := runExp(t, id)
		if !strings.Contains(out, "ξ_new") || !strings.Contains(out, "speedup") {
			t.Errorf("%s output malformed:\n%s", id, out)
		}
	}
}

func TestMemFigureRuns(t *testing.T) {
	out := runExp(t, "fig21")
	if !strings.Contains(out, "budget") || !strings.Contains(out, "H-Mine") {
		t.Errorf("fig21 output malformed:\n%s", out)
	}
}

func TestAblationsRun(t *testing.T) {
	for _, id := range []string{"ablation-utility", "ablation-singlegroup", "ablation-xiold", "ablation-engine"} {
		out := runExp(t, id)
		if len(strings.TrimSpace(out)) == 0 {
			t.Errorf("%s produced no output", id)
		}
	}
}

// TestCaches: dataset and CDB caches return identical objects, and reset
// clears them.
func TestCaches(t *testing.T) {
	spec := bench.SpecByName("connect4")
	a := bench.Dataset(spec, tinyScale)
	b := bench.Dataset(spec, tinyScale)
	if a != b {
		t.Error("dataset cache miss")
	}
	c1 := bench.CompressedDB(spec, tinyScale, core.MCP)
	c2 := bench.CompressedDB(spec, tinyScale, core.MCP)
	if c1 != c2 {
		t.Error("cdb cache miss")
	}
	bench.ResetCaches()
	if bench.Dataset(spec, tinyScale) == a {
		t.Error("reset did not clear cache")
	}
}
