package bench

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"text/tabwriter"

	"gogreen/internal/core"
	"gogreen/internal/mining"
	"gogreen/internal/parallel"
	"gogreen/internal/rphmine"
)

func init() {
	register(Experiment{
		ID:    "ablation-parallel",
		Title: "Parallel scaling: workers vs runtime, baseline and recycling",
		Paper: "extension beyond the paper: the projected-database split parallelizes; recycling's advantage persists per worker",
		Run:   runParallel,
	})
}

// runParallel sweeps worker counts on one sparse and one dense dataset.
func runParallel(cfg Config, w io.Writer) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "dataset\tξ_new\tworkers\tpar-hmine\tpar-rp-hmine\trecycling speedup")
	maxW := runtime.GOMAXPROCS(0)
	workerSweep := []int{1, 2, 4}
	if maxW >= 8 {
		workerSweep = append(workerSweep, 8)
	}
	for _, name := range []string{"weather", "connect4"} {
		spec := SpecByName(name)
		db := Dataset(spec, cfg.Scale)
		cdb := CompressedDB(spec, cfg.Scale, core.MCP)
		xi := spec.Sweep[len(spec.Sweep)/2]
		min := MinCountAt(db.Len(), xi)
		for _, workers := range workerSweep {
			recycled := parallel.Wrap(rphmine.New(), workers)
			var n1, n2 mining.Count
			base := Timed(func() {
				n1 = mining.Count{}
				if err := (parallel.Miner{Workers: workers}).Mine(db, min, &n1); err != nil {
					panic(err)
				}
			})
			rec := Timed(func() {
				n2 = mining.Count{}
				if err := recycled.MineCDB(context.Background(), cdb, min, &n2); err != nil {
					panic(err)
				}
			})
			if n1.N != n2.N {
				panic(fmt.Sprintf("bench: parallel mismatch %d vs %d", n1.N, n2.N))
			}
			fmt.Fprintf(tw, "%s\t%.3f\t%d\t%.3fs\t%.3fs\t%.1fx\n",
				name, xi, workers, base.Seconds(), rec.Seconds(),
				base.Seconds()/rec.Seconds())
		}
	}
	return tw.Flush()
}
