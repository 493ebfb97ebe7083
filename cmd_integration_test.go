// End-to-end tests of the command-line binaries: build them with the Go
// toolchain, then drive the full gendata → mine/save → recycle pipeline the
// README documents.
package gogreen

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildCmds compiles the binaries once per test run.
func buildCmds(t *testing.T, names ...string) map[string]string {
	t.Helper()
	if testing.Short() {
		t.Skip("builds binaries; skipped with -short")
	}
	dir := t.TempDir()
	out := map[string]string{}
	for _, name := range names {
		bin := filepath.Join(dir, name)
		cmd := exec.Command("go", "build", "-o", bin, "./cmd/"+name)
		cmd.Dir = "."
		if msg, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("build %s: %v\n%s", name, err, msg)
		}
		out[name] = bin
	}
	return out
}

func run(t *testing.T, bin string, args ...string) (string, error) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	msg, err := cmd.CombinedOutput()
	return string(msg), err
}

func TestCLIPipeline(t *testing.T) {
	bins := buildCmds(t, "gendata", "rpmine")
	dir := t.TempDir()
	basket := filepath.Join(dir, "w.basket")
	fp := filepath.Join(dir, "round1.fp")
	outTxt := filepath.Join(dir, "patterns.txt")

	// Generate a small dataset.
	if msg, err := run(t, bins["gendata"], "-dataset", "weather", "-scale", "0.002", "-out", basket); err != nil {
		t.Fatalf("gendata: %v\n%s", err, msg)
	}
	if _, err := os.Stat(basket); err != nil {
		t.Fatal(err)
	}

	// Round 1: mine and save.
	msg, err := run(t, bins["rpmine"], "-in", basket, "-minsup", "0.05", "-save", fp)
	if err != nil {
		t.Fatalf("rpmine round 1: %v\n%s", err, msg)
	}
	if !strings.Contains(msg, "saved to") {
		t.Fatalf("round 1 output: %s", msg)
	}

	// Round 2: recycle.
	msg, err = run(t, bins["rpmine"], "-in", basket, "-minsup", "0.02",
		"-algo", "rp-hmine", "-recycle", fp, "-out", outTxt)
	if err != nil {
		t.Fatalf("rpmine round 2: %v\n%s", err, msg)
	}
	if !strings.Contains(msg, "recycling") || !strings.Contains(msg, "compressed:") {
		t.Fatalf("round 2 output: %s", msg)
	}
	data, err := os.ReadFile(outTxt)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Count(string(data), "\n")
	if lines < 10 {
		t.Fatalf("only %d output patterns", lines)
	}

	// Same mine without recycling must agree on the count.
	direct, err := run(t, bins["rpmine"], "-in", basket, "-minsup", "0.02", "-quiet")
	if err != nil {
		t.Fatalf("direct: %v\n%s", err, direct)
	}
	wantCount := extractCount(t, direct)
	gotCount := extractCount(t, msg)
	if wantCount != gotCount {
		t.Fatalf("recycled found %d, direct %d", gotCount, wantCount)
	}

	// Post-processing flags.
	msg, err = run(t, bins["rpmine"], "-in", basket, "-minsup", "0.05", "-closed", "-rules", "0")
	if err != nil {
		t.Fatalf("closed: %v\n%s", err, msg)
	}
	if !strings.Contains(msg, "closed patterns") {
		t.Fatalf("closed output: %s", msg)
	}

	// Error paths.
	if msg, err := run(t, bins["rpmine"], "-in", basket, "-algo", "bogus"); err == nil {
		t.Fatalf("bogus algorithm accepted: %s", msg)
	}
	if msg, err := run(t, bins["rpmine"], "-in", "/nonexistent.basket"); err == nil {
		t.Fatalf("missing input accepted: %s", msg)
	}
	if msg, err := run(t, bins["gendata"], "-dataset", "bogus"); err == nil {
		t.Fatalf("bogus dataset accepted: %s", msg)
	}
}

// TestCLIDataDirStaleInput: rungs persisted under -data-dir must not answer
// for an input that changed under the same name, even when the tuple count
// did not.
func TestCLIDataDirStaleInput(t *testing.T) {
	bins := buildCmds(t, "rpmine")
	dir := t.TempDir()
	basket := filepath.Join(dir, "in.basket")
	cache := filepath.Join(dir, "cache")
	mine := func() int {
		t.Helper()
		msg, err := run(t, bins["rpmine"], "-in", basket, "-minsup", "0.4", "-data-dir", cache, "-quiet")
		if err != nil {
			t.Fatalf("rpmine: %v\n%s", err, msg)
		}
		return extractCount(t, msg)
	}

	if err := os.WriteFile(basket, []byte("1 2 3\n1 2\n2 3\n1 3\n1 2 3\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if got := mine(); got != 7 {
		t.Fatalf("first input: %d patterns, want 7", got)
	}
	// Same name, same tuple count, different tuples.
	if err := os.WriteFile(basket, []byte("7\n7\n8\n9\n9\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if got := mine(); got != 2 {
		t.Fatalf("rewritten input: %d patterns, want 2 (stale rungs served)", got)
	}
}

// extractCount parses "found N frequent patterns" from rpmine's stderr.
func extractCount(t *testing.T, out string) int {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		if i := strings.Index(line, "found "); i >= 0 {
			rest := line[i+len("found "):]
			if j := strings.Index(rest, " frequent"); j >= 0 {
				n := 0
				for _, ch := range rest[:j] {
					if ch < '0' || ch > '9' {
						t.Fatalf("bad count in %q", line)
					}
					n = n*10 + int(ch-'0')
				}
				return n
			}
		}
	}
	t.Fatalf("no count in output:\n%s", out)
	return 0
}

func TestCLIExperimentsList(t *testing.T) {
	bins := buildCmds(t, "experiments")
	msg, err := run(t, bins["experiments"], "-list")
	if err != nil {
		t.Fatalf("experiments -list: %v\n%s", err, msg)
	}
	for _, id := range []string{"table3", "fig9", "fig24", "ablation-twostep"} {
		if !strings.Contains(msg, id) {
			t.Errorf("-list missing %s:\n%s", id, msg)
		}
	}
	if msg, err := run(t, bins["experiments"], "-exp", "bogus"); err == nil {
		t.Fatalf("bogus experiment accepted: %s", msg)
	}
}
