package gogreen

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"gogreen/internal/engine"
	"gogreen/internal/mining"
	"gogreen/internal/server"
	"gogreen/internal/testutil"
)

func TestFacadeRoundTrip(t *testing.T) {
	db := testutil.PaperDB()
	ctx := context.Background()

	round1, err := Mine(ctx, db, HMine, WithMinCount(3))
	if err != nil {
		t.Fatal(err)
	}
	if len(round1.Patterns) != 11 { // complete set incl. the paper's omitted fc:3
		t.Fatalf("round 1: %d patterns, want 11", len(round1.Patterns))
	}

	for _, engine := range []Algorithm{RecycleNaive, RecycleHMine, RecycleFPGrowth, RecycleTreeProj} {
		round2, err := MineRecycling(ctx, db, round1.Patterns, WithMinCount(2), WithEngine(engine))
		if err != nil {
			t.Fatalf("%s: %v", engine, err)
		}
		direct, err := Mine(ctx, db, Apriori, WithMinCount(2))
		if err != nil {
			t.Fatal(err)
		}
		if len(round2.Patterns) != len(direct.Patterns) {
			t.Fatalf("%s: recycled %d patterns, direct %d", engine, len(round2.Patterns), len(direct.Patterns))
		}
	}

	filtered := FilterTightened(round1.Patterns, 4)
	direct4, _ := Mine(ctx, db, HMine, WithMinCount(4))
	if len(filtered) != len(direct4.Patterns) {
		t.Fatalf("filter: %d vs %d", len(filtered), len(direct4.Patterns))
	}
}

func TestFacadeAllAlgorithms(t *testing.T) {
	db := testutil.PaperDB()
	ctx := context.Background()
	want, _ := Mine(ctx, db, Apriori, WithMinCount(2))
	for _, a := range Algorithms() {
		var got Result
		var err error
		if _, e := NewMiner(a); e == nil {
			got, err = Mine(ctx, db, a, WithMinCount(2))
		} else {
			got, err = MineRecycling(ctx, db, nil, WithMinCount(2), WithEngine(a))
		}
		if err != nil {
			t.Fatalf("%s: %v", a, err)
		}
		if len(got.Patterns) != len(want.Patterns) {
			t.Errorf("%s: %d patterns, want %d", a, len(got.Patterns), len(want.Patterns))
		}
	}
}

func TestFacadeErrors(t *testing.T) {
	if _, err := NewMiner("bogus"); err == nil {
		t.Error("NewMiner should reject unknown names")
	}
	if _, err := NewMiner(RecycleHMine); err == nil {
		t.Error("NewMiner should reject engine names")
	}
	if _, err := NewEngine("bogus"); err == nil {
		t.Error("NewEngine should reject unknown names")
	}
	if _, err := NewEngine(HMine); err == nil {
		t.Error("NewEngine should reject baseline names")
	}
	db := testutil.PaperDB()
	ctx := context.Background()
	if _, err := Mine(ctx, db, "bogus", WithMinCount(2)); err == nil {
		t.Error("Mine should propagate algorithm errors")
	}
	if _, err := MineRecycling(ctx, db, nil, WithMinCount(2), WithEngine("bogus")); err == nil {
		t.Error("MineRecycling should propagate engine errors")
	}
}

func TestFacadeIO(t *testing.T) {
	db := NewDB([][]Item{{1, 2}, {2, 3}})
	path := filepath.Join(t.TempDir(), "db.basket")
	if err := WriteBasketFile(path, db); err != nil {
		t.Fatal(err)
	}
	back, err := ReadBasketIDsFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != 2 {
		t.Fatalf("round trip lost tuples")
	}
	if MinCount(back.Len(), 0.6) != 2 {
		t.Error("MinCount")
	}
	cdb := Compress(db, nil, MLP)
	if cdb.NumTx != 2 {
		t.Error("Compress facade")
	}
}

// TestFacadeOptions covers the redesigned entry points: functional options,
// relative thresholds, streaming sinks, and provenance metadata.
func TestFacadeOptions(t *testing.T) {
	db := testutil.PaperDB()
	ctx := context.Background()

	res, err := Mine(ctx, db, HMine, WithMinCount(3))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Patterns) != 11 || res.Source != "fresh" || res.MinCount != 3 {
		t.Fatalf("result = %+v", res)
	}

	// MinSupport 0.6 on 5 tuples resolves to count 3.
	bySup, err := Mine(ctx, db, HMine, WithMinSupport(0.6))
	if err != nil {
		t.Fatal(err)
	}
	if bySup.MinCount != 3 || len(bySup.Patterns) != 11 {
		t.Fatalf("min-support result = %+v", bySup)
	}

	// A sink streams; the result carries no patterns.
	var c Collector
	streamed, err := Mine(ctx, db, HMine, WithMinCount(3), WithSink(&c))
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Patterns) != 11 || streamed.Patterns != nil {
		t.Fatalf("streamed %d, result %+v", len(c.Patterns), streamed)
	}

	rec, err := MineRecycling(ctx, db, res.Patterns, WithMinCount(2), WithStrategy(MLP))
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Patterns) != 27 || rec.Source != "recycled" {
		t.Fatalf("recycled = %+v", rec)
	}

	if _, err := Mine(ctx, db, HMine); err != ErrNoThreshold {
		t.Errorf("missing threshold: %v", err)
	}
	if _, err := MineRecycling(ctx, db, nil); err != ErrNoThreshold {
		t.Errorf("recycling missing threshold: %v", err)
	}
	// A relative threshold of 1 or more is rejected rather than silently
	// resolving to a count above |DB| (which would mine zero patterns).
	if _, err := Mine(ctx, db, HMine, WithMinSupport(1.5)); err != ErrBadMinSupport {
		t.Errorf("min support 1.5: %v", err)
	}
	if _, err := MineRecycling(ctx, db, nil, WithMinSupport(1)); err != ErrBadMinSupport {
		t.Errorf("recycling min support 1: %v", err)
	}
	// An explicit MinCount still wins over an out-of-range fraction.
	if _, err := Mine(ctx, db, HMine, WithMinCount(3), WithMinSupport(1.5)); err != nil {
		t.Errorf("min count with stray fraction: %v", err)
	}
}

// TestReadmeAlgorithmTable keeps the README's algorithm table in lockstep
// with the engine registry: every registered name appears exactly once with
// its kind, and the table carries no stale rows.
func TestReadmeAlgorithmTable(t *testing.T) {
	data, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	re := regexp.MustCompile("(?m)^\\| `([a-z0-9-]+)` \\| (fresh|recycled) \\|")
	rows := map[string]string{}
	for _, m := range re.FindAllStringSubmatch(string(data), -1) {
		if _, dup := rows[m[1]]; dup {
			t.Errorf("README lists %q twice", m[1])
		}
		rows[m[1]] = m[2]
	}
	for _, d := range engine.Descriptors() {
		kind, ok := rows[d.Name]
		if !ok {
			t.Errorf("registry name %q missing from the README table", d.Name)
			continue
		}
		if kind != d.Kind.String() {
			t.Errorf("README lists %q as %s, registry says %s", d.Name, kind, d.Kind)
		}
		delete(rows, d.Name)
	}
	for name := range rows {
		t.Errorf("README lists %q, which the registry does not register", name)
	}
}

// TestReadmeRouteTable keeps the README's endpoint table in lockstep with
// the routes the server actually registers on its mux: every registered
// "METHOD /pattern" appears verbatim exactly once in the table, and the
// table carries no route the server does not serve.
func TestReadmeRouteTable(t *testing.T) {
	data, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	section := string(data)
	start := strings.Index(section, "Endpoints:")
	if start < 0 {
		t.Fatal("README has no \"Endpoints:\" section")
	}
	section = section[start:]
	if end := strings.Index(section, "\n## "); end >= 0 {
		section = section[:end]
	}

	re := regexp.MustCompile("`((?:GET|PUT|POST|DELETE) /[^`]*)`")
	documented := map[string]bool{}
	for _, m := range re.FindAllStringSubmatch(section, -1) {
		// "POST /db/{id}/mine?async=1"-style variants document the same route.
		pattern := m[1]
		if q := strings.Index(pattern, "?"); q >= 0 {
			pattern = pattern[:q]
		}
		if documented[pattern] {
			t.Errorf("README endpoint table lists %q twice", pattern)
		}
		documented[pattern] = true
	}

	srv := server.New()
	defer srv.Shutdown(context.Background())
	for _, r := range srv.Routes() {
		if !documented[r] {
			t.Errorf("served route %q missing from the README endpoint table", r)
			continue
		}
		delete(documented, r)
	}
	for pattern := range documented {
		t.Errorf("README endpoint table lists %q, which the server does not serve", pattern)
	}
}

// TestFacadeCancellation proves both entry points honor a cancelled context.
func TestFacadeCancellation(t *testing.T) {
	db := testutil.PaperDB()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Mine(ctx, db, HMine, WithMinCount(2)); !errors.Is(err, context.Canceled) {
		t.Errorf("Mine with cancelled ctx: %v", err)
	}
	if _, err := MineRecycling(ctx, db, nil, WithMinCount(2)); !errors.Is(err, context.Canceled) {
		t.Errorf("MineRecycling with cancelled ctx: %v", err)
	}
}

// TestFacadeDeepMineDeadline: ten copies of one 64-item tuple make the
// FP-tree one path of 64 nodes, whose single-path enumeration covers
// 2^64-1 patterns. Under a deadline Mine returns DeadlineExceeded for
// FP-growth as for H-Mine, neither panicking nor running on.
func TestFacadeDeepMineDeadline(t *testing.T) {
	db := testutil.RepeatedTuple(64, 10)
	for _, algo := range []Algorithm{FPGrowth, HMine} {
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		var c mining.Count
		start := time.Now()
		if _, err := Mine(ctx, db, algo, WithMinCount(10), WithSink(&c)); !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("%s: err = %v after %d patterns, want context.DeadlineExceeded", algo, err, c.N)
		}
		if el := time.Since(start); el > 5*time.Second {
			t.Errorf("%s: returned %v after a 50ms deadline", algo, el)
		}
		cancel()
	}
}
