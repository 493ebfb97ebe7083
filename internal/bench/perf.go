// Perf is the reproducible performance harness behind cmd/rpbench: it runs
// the compression and mining variants through testing.Benchmark and renders
// the numbers as the checked-in BENCH_compress.json / BENCH_mine.json
// baselines, so every PR's speedups (or regressions) are provable against
// the repository history.
package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"testing"

	"gogreen/internal/core"
	"gogreen/internal/dataset"
	"gogreen/internal/engine"
	"gogreen/internal/gen"
	"gogreen/internal/mining"
)

// PerfEntry is one benchmark measurement.
type PerfEntry struct {
	Experiment string `json:"experiment"`
	Dataset    string `json:"dataset"`
	// Variant identifies the code path, e.g. "scan", "indexed",
	// "parallel-4w", "hmine", "rp-hmine".
	Variant string `json:"variant"`
	// GOMAXPROCS records the procs setting the entry was measured at —
	// baseline files merge entries from a whole procs grid, so speedup
	// claims are only comparable within one gomaxprocs value.
	GOMAXPROCS int `json:"gomaxprocs,omitempty"`
	Workers    int `json:"workers,omitempty"`
	// Patterns is the recycled pattern count of compression workloads.
	Patterns    int     `json:"patterns,omitempty"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	// CompressionRatio is R = S_c/S_o of the produced CDB (compression
	// experiments only).
	CompressionRatio float64 `json:"compression_ratio,omitempty"`
	// SpeedupVsSerial is serial-baseline ns_per_op divided by this entry's
	// ns_per_op; the baseline row itself reports 1.
	SpeedupVsSerial float64 `json:"speedup_vs_serial,omitempty"`
}

// PerfReport is the schema of a BENCH_*.json file.
type PerfReport struct {
	Experiment string  `json:"experiment"`
	Scale      float64 `json:"scale"`
	Quick      bool    `json:"quick"`
	GoVersion  string  `json:"go_version"`
	// GOMAXPROCS is the procs setting of the run that produced the report;
	// when rpbench merges a whole grid into one file it is the grid maximum
	// and ProcsGrid lists every point (each entry carries its own value).
	GOMAXPROCS int   `json:"gomaxprocs"`
	ProcsGrid  []int `json:"procs_grid,omitempty"`
	// NumCPU is the machine's real core count — the honesty marker behind
	// rpbench's -allow-serial gate: parallel speedups measured with
	// NumCPU=1 are scheduling artifacts, not parallelism.
	NumCPU int `json:"num_cpu,omitempty"`
	// Warning flags measurement-validity caveats rpbench stamped on the
	// run (e.g. the requested procs grid exceeded the machine's cores, or
	// baselines were recorded on a single-core machine). A report with a
	// warning is still structurally valid; its speedup columns are not
	// evidence of parallelism.
	Warning string      `json:"warning,omitempty"`
	Entries []PerfEntry `json:"entries"`
}

// Merge appends o's entries onto r, widening the procs metadata. Used by
// rpbench to fold a GOMAXPROCS grid of runs into one baseline file.
func (r *PerfReport) Merge(o PerfReport) {
	if o.GOMAXPROCS > r.GOMAXPROCS {
		r.GOMAXPROCS = o.GOMAXPROCS
	}
	r.ProcsGrid = append(r.ProcsGrid, o.GOMAXPROCS)
	r.Entries = append(r.Entries, o.Entries...)
}

// JSON renders the report indented, ending in a newline.
func (r PerfReport) JSON() []byte {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		panic(err) // static schema: cannot fail
	}
	return append(b, '\n')
}

// DenseDeepConfig is the dense Connect-4-shaped compression acceptance
// workload: 43 attributes, 3 values each, three deep hierarchies whose
// second level sits near the mining threshold. Mined at DenseDeepXiOld it
// yields tens of thousands of recycled patterns whose top utility ranks are
// long, borderline-support patterns — the deep recycled-set regime where
// the naive scan really pays O(|DB|·|FP|) (most tuples do not contain the
// top-ranked patterns, so its first-hit early exit stops saving it) and
// rarest-item candidate pruning shines (deep items appear in uncovered
// tuples only at the noise rate).
func DenseDeepConfig(numTx int) gen.DenseConfig {
	return gen.DenseConfig{
		NumTx:         numTx,
		NumAttrs:      43,
		ValuesPerAttr: 3,
		TopProbLo:     0.02,
		TopProbHi:     0.08,
		NoiseTop:      0.02,
		Hierarchies: []gen.Hierarchy{
			{Start: 0, Sizes: []int{4, 14}, Probs: []float64{0.55, 0.18}},
			{Start: 14, Sizes: []int{4, 14}, Probs: []float64{0.52, 0.17}},
			{Start: 28, Sizes: []int{4, 14}, Probs: []float64{0.50, 0.16}},
		},
		Seed: 20040303,
	}
}

// DenseDeepXiOld is the ξ_old threshold of the deep workload.
const DenseDeepXiOld = 0.12

// compressWorkload is one (database, ranked recycled patterns) input.
type compressWorkload struct {
	name   string
	db     *dataset.DB
	ranked []core.RankedPattern
}

// compressWorkloads builds the compression inputs: the deep dense
// acceptance workload plus the calibrated Connect-4 preset at its paper
// ξ_old (the early-hit regime, kept for honest contrast — candidate
// indexing buys little when the top-ranked patterns cover almost every
// tuple).
func compressWorkloads(cfg Config, quick bool) ([]compressWorkload, error) {
	// The deep workload keeps its size in quick mode: shrinking it lets
	// sampling noise push borderline cross-hierarchy products over the
	// threshold and the pattern count explodes, making "quick" slower.
	deepTx, presetScale := 600, cfg.Scale
	if quick {
		presetScale = minScale(cfg.Scale, 0.005)
	}
	var out []compressWorkload
	for _, w := range []struct {
		name  string
		db    *dataset.DB
		xiOld float64
	}{
		{"dense-deep", gen.Dense(DenseDeepConfig(deepTx)), DenseDeepXiOld},
		{"connect4", gen.Connect4(presetScale), 0.95},
	} {
		var col mining.Collector
		if err := registryMiner("hmine").Mine(w.db, MinCountAt(w.db.Len(), w.xiOld), &col); err != nil {
			return nil, err
		}
		out = append(out, compressWorkload{
			name:   w.name,
			db:     w.db,
			ranked: core.RankPatterns(col.Patterns, w.db.Len(), core.MCP),
		})
	}
	return out, nil
}

func minScale(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

// CompressPerf benchmarks the compression engines — the naive serial scan,
// the indexed serial engine, and the sharded parallel engine — over the
// dense workloads and reports speedups against the scan baseline.
func CompressPerf(cfg Config, quick bool) (PerfReport, error) {
	rep := newReport("compress", cfg, quick)
	workloads, err := compressWorkloads(cfg, quick)
	if err != nil {
		return rep, err
	}
	for _, w := range workloads {
		ratio := core.CompressRanked(w.db, w.ranked).Stats().Ratio
		variants := []struct {
			name    string
			workers int
			run     func()
		}{
			{"scan", 0, func() { core.CompressRankedScan(w.db, w.ranked) }},
			{"indexed", 0, func() { core.CompressRanked(w.db, w.ranked) }},
		}
		for _, workers := range parallelWorkerCounts(quick) {
			workers := workers
			variants = append(variants, struct {
				name    string
				workers int
				run     func()
			}{fmt.Sprintf("parallel-%dw", workers), workers, func() {
				if _, err := core.CompressRankedParallel(context.Background(), w.db, w.ranked, workers); err != nil {
					panic(err) // background ctx never cancels
				}
			}})
		}
		var scanNs float64
		for _, v := range variants {
			r := testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					v.run()
				}
			})
			e := entryOf(r, "compress", w.name, v.name)
			e.Workers = v.workers
			e.Patterns = len(w.ranked)
			e.CompressionRatio = ratio
			if v.name == "scan" {
				scanNs = e.NsPerOp
			}
			if scanNs > 0 {
				e.SpeedupVsSerial = scanNs / e.NsPerOp
			}
			rep.Entries = append(rep.Entries, e)
		}
	}
	return rep, nil
}

// MinePerf benchmarks the mining phase on the Connect-4 preset at one ξ_new
// below its ξ_old: fresh H-Mine, FP-tree (the served engine) and Tree
// Projection, then each recycled H-Mine, FP-tree and Tree Projection engine
// over the precompressed database. Compression is excluded (it has its own
// report); every row's SpeedupVsSerial is measured against fresh H-Mine
// (the recycling advantage).
func MinePerf(cfg Config, quick bool) (PerfReport, error) {
	rep := newReport("mine", cfg, quick)
	scale := cfg.Scale
	if quick {
		scale = minScale(scale, 0.005)
	}
	spec := SpecByName("connect4")
	db := gen.Connect4(scale)
	xiNew := spec.Sweep[0] // 0.945: one step past ξ_old = 0.95
	min := MinCountAt(db.Len(), xiNew)

	var col mining.Collector
	if err := registryMiner("hmine").Mine(db, MinCountAt(db.Len(), spec.XiOld), &col); err != nil {
		return rep, err
	}
	fp := col.Patterns
	cdb := core.Compress(db, fp, core.MCP)

	ctx := context.Background()
	var freshNs float64
	for _, name := range []string{"hmine", "fptree", "treeproj", "rp-hmine", "rp-fptree", "rp-treeproj"} {
		d, _ := engine.Lookup(name)
		var c mining.Count
		var run func() error
		if d.Kind == engine.Fresh {
			m := d.Miner()
			run = func() error { return m.Mine(db, min, &c) }
		} else {
			e := d.Engine()
			run = func() error { return e.MineCDB(ctx, cdb, min, &c) }
		}
		var runErr error
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := run(); err != nil {
					runErr = err
					b.FailNow()
				}
			}
		})
		if runErr != nil {
			return rep, runErr
		}
		e := entryOf(r, "mine", "connect4", name)
		e.Patterns = len(fp)
		if name == "hmine" {
			freshNs = e.NsPerOp
		}
		e.SpeedupVsSerial = freshNs / e.NsPerOp
		rep.Entries = append(rep.Entries, e)
	}
	return rep, nil
}

// parallelWorkerCounts picks the parallel shard counts to measure: the
// machine's GOMAXPROCS always, plus 4 when that differs (so single-core CI
// still exercises the sharded path).
func parallelWorkerCounts(quick bool) []int {
	counts := []int{runtime.GOMAXPROCS(0)}
	if !quick && counts[0] != 4 {
		counts = append(counts, 4)
	}
	return counts
}

func newReport(experiment string, cfg Config, quick bool) PerfReport {
	return PerfReport{
		Experiment: experiment,
		Scale:      cfg.Scale,
		Quick:      quick,
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
}

func entryOf(r testing.BenchmarkResult, experiment, ds, variant string) PerfEntry {
	return PerfEntry{
		Experiment:  experiment,
		Dataset:     ds,
		Variant:     variant,
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
	}
}
