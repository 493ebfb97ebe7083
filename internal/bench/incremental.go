package bench

import (
	"context"
	"fmt"
	"io"
	"text/tabwriter"

	"gogreen/internal/core"
	"gogreen/internal/dataset"
	"gogreen/internal/fup"
	"gogreen/internal/gen"
	"gogreen/internal/mining"
)

func init() {
	register(Experiment{
		ID:    "ablation-incremental",
		Title: "Incremental update: re-mine vs FUP vs recycling across increment sizes",
		Paper: "tests Section 6's claim that incremental techniques degrade on large changes while recycling does not",
		Run:   runIncremental,
	})
}

// runIncremental grows the Weather stand-in by increasing increments and
// compares three ways to refresh the pattern set at the same relative
// threshold: full re-mining (H-Mine), FUP, and compress-and-recycle.
func runIncremental(cfg Config, w io.Writer) error {
	spec := SpecByName("weather")
	orig := Dataset(spec, cfg.Scale)
	const frac = 0.02 // relative threshold maintained across updates
	oldMin := MinCountAt(orig.Len(), frac)
	oldFP := minedAt(orig, oldMin)

	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "increment\t#tuples\t#patterns\tre-mine\tFUP\trecycle\tFUP vs recycle")
	for _, incFrac := range []float64{0.01, 0.1, 0.5, 1.0} {
		delta := gen.Sparse(gen.SparseConfig{
			NumTx:        int(float64(orig.Len())*incFrac) + 1,
			NumItems:     7959,
			AvgLen:       15,
			NumSources:   400,
			AvgSourceLen: 4,
			Correlation:  0.5,
			CorruptMean:  0.5,
			Hot: []gen.HotPattern{ // a shifted mix: some patterns persist, some emerge
				{Len: 9, Prob: 0.100}, {Len: 8, Prob: 0.100}, {Len: 7, Prob: 0.100},
				{Len: 6, Prob: 0.120}, {Len: 5, Prob: 0.150}, {Len: 6, Prob: 0.080},
			},
			Seed: 77,
		})
		combined := concatDB(orig, delta)
		newMin := MinCountAt(combined.Len(), frac)

		var nRemine int
		remine := Timed(func() {
			nRemine = len(minedAt(combined, newMin))
		})
		var errFUP error
		var nFUP int
		fupT := Timed(func() {
			ps, err := fup.Update(orig, oldFP, oldMin, delta, newMin)
			errFUP = err
			nFUP = len(ps)
		})
		if errFUP != nil {
			return errFUP
		}
		var nRec int
		rec := Timed(func() {
			cdb := core.Compress(combined, oldFP, core.MCP)
			var c mining.Count
			if err := rphmineMiner().MineCDB(context.Background(), cdb, newMin, &c); err != nil {
				panic(err)
			}
			nRec = c.N
		})
		if nFUP != nRemine || nRec != nRemine {
			panic(fmt.Sprintf("bench: incremental mismatch: remine=%d fup=%d recycle=%d",
				nRemine, nFUP, nRec))
		}
		fmt.Fprintf(tw, "%.0f%%\t%d\t%d\t%.3fs\t%.3fs\t%.3fs\t%.1fx\n",
			incFrac*100, combined.Len(), nRemine,
			remine.Seconds(), fupT.Seconds(), rec.Seconds(),
			fupT.Seconds()/rec.Seconds())
	}
	return tw.Flush()
}

// minedAt mines db at min with H-Mine and returns the patterns.
func minedAt(db *dataset.DB, min int) []mining.Pattern {
	var col mining.Collector
	if err := hmineMiner().Mine(db, min, &col); err != nil {
		panic(err)
	}
	return col.Patterns
}

// concatDB concatenates two databases.
func concatDB(a, b *dataset.DB) *dataset.DB {
	tx := make([][]dataset.Item, 0, a.Len()+b.Len())
	tx = append(tx, a.All()...)
	tx = append(tx, b.All()...)
	return dataset.New(tx)
}
