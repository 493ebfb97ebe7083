// Command rpbench runs the repository's performance benchmark grid and
// writes the BENCH_compress.json / BENCH_mine.json baselines.
//
// The compress experiment measures phase one of recycling — the naive
// serial scan, the indexed serial engine, and the sharded parallel engine —
// on dense Connect-4-style workloads, reporting ns/op, allocs/op, the
// compression ratio, and the speedup against the serial scan. The mine
// experiment measures the mining phase: fresh H-Mine, FP-tree and Tree
// Projection, then rp-hmine, rp-fptree and rp-treeproj over the
// precompressed database, reporting each row's speedup against fresh H-Mine. The service's end-to-end benchmark is
// perfbench/ (see perfbench/README.md).
//
// Every experiment runs once per point of a GOMAXPROCS grid (default
// 1, 4 and NumCPU, deduplicated) and each entry embeds the gomaxprocs it
// was measured at, so parallel speedup rows can never masquerade as
// multi-core results again. Grid points above the machine's core count are
// clamped to NumCPU (oversubscribed GOMAXPROCS measures scheduler thrash,
// not the code) unless -force-procs keeps them; either way the report's
// warning field records what happened. On a machine without real
// parallelism (NumCPU=1) writing baselines is refused unless -allow-serial
// states the limitation explicitly.
//
// One maintenance mode skips measurement entirely: -diff compares two
// recorded reports entry by entry (time ratio, allocs, bytes).
//
// Usage:
//
//	go run ./cmd/rpbench              # full grid, writes ./BENCH_*.json
//	go run ./cmd/rpbench -quick       # CI smoke: smaller inputs, same files
//	go run ./cmd/rpbench -scale 0.02 -out bench-out -procs 1,8
//	go run ./cmd/rpbench -diff BENCH_mine.json bench-out/BENCH_mine.json
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"gogreen/internal/bench"
)

func main() {
	quick := flag.Bool("quick", false, "run smaller inputs (CI smoke mode)")
	scale := flag.Float64("scale", 0.01, "dataset scale for preset workloads (1.0 = paper size)")
	out := flag.String("out", ".", "directory for the BENCH_*.json files")
	procs := flag.String("procs", "", "comma-separated GOMAXPROCS grid (default \"1,4,max\"; \"max\" = NumCPU)")
	allowSerial := flag.Bool("allow-serial", false,
		"allow writing baselines on a single-core machine, where parallel speedups are scheduling artifacts")
	forceProcs := flag.Bool("force-procs", false,
		"keep procs grid points above NumCPU instead of clamping them (measures scheduler oversubscription)")
	diffMode := flag.Bool("diff", false,
		"compare two recorded reports: rpbench -diff old.json new.json")
	flag.Parse()

	if *diffMode {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-diff takes exactly two report files, got %d", flag.NArg()))
		}
		runDiff(flag.Arg(0), flag.Arg(1))
		return
	}

	grid, err := procsGrid(*procs)
	if err != nil {
		fatal(err)
	}
	var warnings []string
	if clamped := clampGrid(grid); clamped != nil {
		if *forceProcs {
			warnings = append(warnings, fmt.Sprintf(
				"procs grid %v exceeds NumCPU=%d (kept by -force-procs); oversubscribed rows measure scheduler thrash",
				grid, runtime.NumCPU()))
		} else {
			fmt.Printf("clamping procs grid %v to %v (NumCPU=%d; pass -force-procs to keep oversubscribed points)\n",
				grid, clamped, runtime.NumCPU())
			grid = clamped
		}
	}
	if runtime.NumCPU() == 1 || grid[len(grid)-1] == 1 {
		if !*allowSerial {
			fatal(fmt.Errorf("refusing to write baselines: NumCPU=%d, procs grid %v has no real parallelism "+
				"(speedup columns would be meaningless); pass -allow-serial to record anyway", runtime.NumCPU(), grid))
		}
		warnings = append(warnings, fmt.Sprintf(
			"recorded with -allow-serial on NumCPU=%d: multi-worker speedups are scheduling artifacts, not parallelism",
			runtime.NumCPU()))
	}

	cfg := bench.Config{Scale: *scale}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fatal(err)
	}

	defaultProcs := runtime.GOMAXPROCS(0)
	for _, exp := range []struct {
		file string
		run  func(bench.Config, bool) (bench.PerfReport, error)
	}{
		{"BENCH_compress.json", bench.CompressPerf},
		{"BENCH_mine.json", bench.MinePerf},
	} {
		var merged bench.PerfReport
		for i, g := range grid {
			runtime.GOMAXPROCS(g)
			rep, err := exp.run(cfg, *quick)
			runtime.GOMAXPROCS(defaultProcs)
			if err != nil {
				fatal(err)
			}
			if i == 0 {
				merged = rep
				merged.ProcsGrid = []int{rep.GOMAXPROCS}
			} else {
				merged.Merge(rep)
			}
		}
		merged.NumCPU = runtime.NumCPU()
		merged.Warning = strings.Join(warnings, "; ")
		path := filepath.Join(*out, exp.file)
		if err := os.WriteFile(path, merged.JSON(), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s (procs grid %v)\n", path, merged.ProcsGrid)
		if merged.Warning != "" {
			fmt.Printf("  warning: %s\n", merged.Warning)
		}
		for _, e := range merged.Entries {
			fmt.Printf("  p%-3d %-12s %-20s %12.0f ns/op  %8d allocs/op  %10d B/op",
				e.GOMAXPROCS, e.Dataset, e.Variant, e.NsPerOp, e.AllocsPerOp, e.BytesPerOp)
			if e.SpeedupVsSerial > 0 {
				fmt.Printf("  %5.2fx", e.SpeedupVsSerial)
			}
			fmt.Println()
		}
	}
}

// runDiff prints an entry-by-entry comparison of two recorded reports.
func runDiff(oldPath, newPath string) {
	old, err := bench.LoadReport(oldPath)
	if err != nil {
		fatal(err)
	}
	cur, err := bench.LoadReport(newPath)
	if err != nil {
		fatal(err)
	}
	rows, onlyOld, onlyNew := bench.DiffReports(old, cur)
	fmt.Printf("%-46s %22s %8s %24s %24s\n", "entry", "ns/op old→new", "ratio", "allocs/op old→new", "B/op old→new")
	for _, r := range rows {
		fmt.Printf("%-46s %10.0f→%-10.0f %7.2fx %11d→%-11d %11d→%-11d\n",
			r.Key, r.OldNs, r.NewNs, r.NsRatio(), r.OldAllocs, r.NewAllocs, r.OldBytes, r.NewBytes)
	}
	for _, k := range onlyOld {
		fmt.Printf("%-46s only in %s\n", k, oldPath)
	}
	for _, k := range onlyNew {
		fmt.Printf("%-46s only in %s\n", k, newPath)
	}
}

// clampGrid returns the grid with every point above NumCPU clamped down
// (sorted, deduplicated), or nil when nothing exceeds the machine.
func clampGrid(grid []int) []int {
	n := runtime.NumCPU()
	over := false
	for _, g := range grid {
		if g > n {
			over = true
		}
	}
	if !over {
		return nil
	}
	out := make([]int, 0, len(grid))
	for _, g := range grid {
		if g > n {
			g = n
		}
		if len(out) == 0 || g != out[len(out)-1] {
			out = append(out, g)
		}
	}
	return out
}

// procsGrid parses the -procs flag into a sorted, deduplicated GOMAXPROCS
// grid; empty means the default 1,4,NumCPU.
func procsGrid(s string) ([]int, error) {
	if s == "" {
		s = "1,4,max"
	}
	var grid []int
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		n := runtime.NumCPU()
		if f != "max" {
			var err error
			if n, err = strconv.Atoi(f); err != nil || n < 1 {
				return nil, fmt.Errorf("bad -procs entry %q", f)
			}
		}
		grid = append(grid, n)
	}
	sort.Ints(grid)
	out := grid[:0]
	for i, g := range grid {
		if i == 0 || g != out[len(out)-1] {
			out = append(out, g)
		}
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rpbench:", err)
	os.Exit(1)
}
