package core_test

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"gogreen/internal/bench"
	"gogreen/internal/core"
	"gogreen/internal/dataset"
	"gogreen/internal/gen"
	"gogreen/internal/hmine"
	"gogreen/internal/mining"
)

// benchDB builds a mid-sized random database with duplication, once.
func benchDB(b *testing.B) (*dataset.DB, []mining.Pattern) {
	b.Helper()
	r := rand.New(rand.NewSource(7))
	tx := make([][]dataset.Item, 5000)
	for i := range tx {
		n := 4 + r.Intn(12)
		t := make([]dataset.Item, n)
		for j := range t {
			t[j] = dataset.Item(r.Intn(60) * r.Intn(2) * 2 / (1 + r.Intn(2))) // skewed
		}
		tx[i] = t
	}
	db := dataset.New(tx)
	var col mining.Collector
	if err := hmine.New().Mine(db, 200, &col); err != nil {
		b.Fatal(err)
	}
	return db, col.Patterns
}

func BenchmarkCompressMCP(b *testing.B) {
	db, fp := benchDB(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.Compress(db, fp, core.MCP)
	}
}

func BenchmarkCompressMLP(b *testing.B) {
	db, fp := benchDB(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.Compress(db, fp, core.MLP)
	}
}

var denseCache struct {
	once   sync.Once
	db     *dataset.DB
	ranked []core.RankedPattern
	err    error
}

// denseRanked mines the dense Connect-4-shaped deep workload
// (bench.DenseDeepConfig, the acceptance benchmark of cmd/rpbench) once and
// shares it across the Compress benchmarks. The pattern list must hold at
// least 1000 recycled patterns for the benchmark to measure the regime the
// index targets.
func denseRanked(b *testing.B) (*dataset.DB, []core.RankedPattern) {
	b.Helper()
	c := &denseCache
	c.once.Do(func() {
		c.db = gen.Dense(bench.DenseDeepConfig(600))
		var col mining.Collector
		if c.err = hmine.New().Mine(c.db, mining.MinCount(c.db.Len(), bench.DenseDeepXiOld), &col); c.err != nil {
			return
		}
		if len(col.Patterns) < 1000 {
			c.err = fmt.Errorf("dense workload has %d recycled patterns, need >= 1000", len(col.Patterns))
			return
		}
		c.ranked = core.RankPatterns(col.Patterns, c.db.Len(), core.MCP)
	})
	if c.err != nil {
		b.Fatal(c.err)
	}
	return c.db, c.ranked
}

// BenchmarkCompressDenseScan is the pre-index serial baseline on the dense
// workload — the "before" number of BENCH_compress.json.
func BenchmarkCompressDenseScan(b *testing.B) {
	db, ranked := denseRanked(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.CompressRankedScan(db, ranked)
	}
}

// BenchmarkCompressDenseIndexed is the indexed serial engine on the same
// workload; the acceptance bar is >= 3x over the scan baseline.
func BenchmarkCompressDenseIndexed(b *testing.B) {
	db, ranked := denseRanked(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.CompressRanked(db, ranked)
	}
}

// BenchmarkCompressDenseParallel shards the indexed engine over GOMAXPROCS
// workers (identical output; on multi-core hardware the speedup multiplies).
func BenchmarkCompressDenseParallel(b *testing.B) {
	db, ranked := denseRanked(b)
	workers := runtime.GOMAXPROCS(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.CompressRankedParallel(context.Background(), db, ranked, workers); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDedup(b *testing.B) {
	db, _ := benchDB(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.Dedup(db)
	}
}

func BenchmarkRankPatterns(b *testing.B) {
	db, fp := benchDB(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.RankPatterns(fp, db.Len(), core.MCP)
	}
}

func BenchmarkEncodeCDB(b *testing.B) {
	db, fp := benchDB(b)
	cdb := core.Compress(db, fp, core.MCP)
	flist := cdb.FList(50)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.EncodeCDB(cdb, flist)
	}
}

func BenchmarkProject(b *testing.B) {
	db, fp := benchDB(b)
	cdb := core.Compress(db, fp, core.MCP)
	flist := cdb.FList(50)
	blocks, loose := core.EncodeCDB(cdb, flist)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.Project(blocks, loose, dataset.Item(i%flist.Len()))
	}
}

func BenchmarkNaiveMine(b *testing.B) {
	db, fp := benchDB(b)
	cdb := core.Compress(db, fp, core.MCP)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var c mining.Count
		if err := (core.Naive{}).MineCDB(context.Background(), cdb, 100, &c); err != nil {
			b.Fatal(err)
		}
	}
}
