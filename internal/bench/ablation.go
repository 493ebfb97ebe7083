package bench

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"text/tabwriter"

	"gogreen/internal/core"
	"gogreen/internal/mining"
)

// Ablation benchmarks for the design choices DESIGN.md calls out: the
// utility function (beyond the paper's MCP/MLP pair), the Lemma 3.1
// single-group enumeration, the choice of ξ_old, and the compressed-miner
// engine.

func init() {
	register(Experiment{
		ID:    "ablation-dedup",
		Title: "Duplicate-collapse compression (no recycled patterns) vs pattern compression vs baseline",
		Paper: "extension: exact-duplicate groups are the degenerate case of the paper's compression",
		Run:   runAblationDedup,
	})
	register(Experiment{
		ID:    "ablation-utility",
		Title: "Cover-selection ablation: MCP vs MLP vs support-only vs random order",
		Paper: "extends §5.2's MCP-vs-MLP comparison with degenerate orders",
		Run:   runAblationUtility,
	})
	register(Experiment{
		ID:    "ablation-singlegroup",
		Title: "Lemma 3.1 ablation: single-group enumeration on vs off (naive miner)",
		Paper: "quantifies the enumeration shortcut of Section 3.3",
		Run:   runAblationSingleGroup,
	})
	register(Experiment{
		ID:    "ablation-xiold",
		Title: "ξ_old sensitivity: recycling benefit vs the threshold patterns were mined at",
		Paper: "tests §5's claim that lower ξ_old gives better recycling",
		Run:   runAblationXiOld,
	})
	register(Experiment{
		ID:    "ablation-engine",
		Title: "Engine comparison on one compressed database: naive vs RP-HM vs RP-FP vs RP-TP",
		Paper: "compares the Section 4 adaptations against the naive Section 3.3 miner",
		Run:   runAblationEngine,
	})
}

// runAblationUtility compares cover orders on one sparse and one dense
// dataset at the middle sweep point.
func runAblationUtility(cfg Config, w io.Writer) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "dataset\tξ_new\torder\tratio\tgroups\truntime")
	for _, name := range []string{"weather", "connect4"} {
		spec := SpecByName(name)
		db := Dataset(spec, cfg.Scale)
		fp := RecycledPatterns(spec, cfg.Scale)
		xi := spec.Sweep[len(spec.Sweep)/2]
		min := MinCountAt(db.Len(), xi)

		type cover struct {
			label string
			build func() *core.CDB
		}
		orders := []cover{
			{"MCP", func() *core.CDB { return core.Compress(db, fp, core.MCP) }},
			{"MLP", func() *core.CDB { return core.Compress(db, fp, core.MLP) }},
			// Support-only: only the singleton patterns are recycled —
			// compression degenerates to marking one hot item per tuple.
			{"support-only", func() *core.CDB { return core.Compress(db, singletonsOnly(fp), core.MCP) }},
			// Random: the same patterns in a seeded random order, applied
			// greedily without any utility ranking.
			{"random", func() *core.CDB { return core.CompressRanked(db, shuffledRanked(fp, 42)) }},
		}
		for _, o := range orders {
			var cdb *core.CDB
			comp := Timed(func() { cdb = o.build() })
			st := cdb.Stats()
			mine := Timed(func() {
				var c mining.Count
				if err := (core.Naive{}).MineCDB(context.Background(), cdb, min, &c); err != nil {
					panic(err)
				}
			})
			fmt.Fprintf(tw, "%s\t%.3f\t%s\t%.3f\t%d\t%.3fs (compress %.3fs)\n",
				name, xi, o.label, st.Ratio, st.NumGroups, mine.Seconds(), comp.Seconds())
		}
	}
	return tw.Flush()
}

// singletonsOnly keeps only length-1 patterns.
func singletonsOnly(fp []mining.Pattern) []mining.Pattern {
	var out []mining.Pattern
	for _, p := range fp {
		if len(p.Items) == 1 {
			out = append(out, p)
		}
	}
	return out
}

// shuffledRanked puts the patterns in a seeded random cover order.
func shuffledRanked(fp []mining.Pattern, seed int64) []core.RankedPattern {
	out := make([]core.RankedPattern, len(fp))
	for i, p := range fp {
		out[i] = core.RankedPattern{Items: p.Items, Support: p.Support}
	}
	r := rand.New(rand.NewSource(seed))
	r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// runAblationSingleGroup measures the Lemma 3.1 shortcut on the dense
// datasets where single-group projections dominate.
func runAblationSingleGroup(cfg Config, w io.Writer) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "dataset\tξ_new\twith Lemma 3.1\twithout\tspeedup")
	for _, name := range []string{"connect4", "pumsb"} {
		spec := SpecByName(name)
		db := Dataset(spec, cfg.Scale)
		cdb := CompressedDB(spec, cfg.Scale, core.MCP)
		for _, xi := range []float64{spec.Sweep[0], spec.Sweep[len(spec.Sweep)/2]} {
			min := MinCountAt(db.Len(), xi)
			on := Timed(func() {
				var c mining.Count
				if err := (core.Naive{}).MineCDB(context.Background(), cdb, min, &c); err != nil {
					panic(err)
				}
			})
			off := Timed(func() {
				var c mining.Count
				if err := (core.Naive{DisableSingleGroup: true}).MineCDB(context.Background(), cdb, min, &c); err != nil {
					panic(err)
				}
			})
			fmt.Fprintf(tw, "%s\t%.3f\t%.3fs\t%.3fs\t%.1fx\n",
				name, xi, on.Seconds(), off.Seconds(), off.Seconds()/on.Seconds())
		}
	}
	return tw.Flush()
}

// runAblationXiOld varies the threshold the recycled patterns were mined at
// and re-times recycling at a fixed ξ_new.
func runAblationXiOld(cfg Config, w io.Writer) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "dataset\tξ_old\t#patterns\tratio\tξ_new\tHM-MCP\tH-Mine(ref)")
	for _, name := range []string{"weather", "connect4"} {
		spec := SpecByName(name)
		db := Dataset(spec, cfg.Scale)
		xiNew := spec.Sweep[len(spec.Sweep)-1]
		min := MinCountAt(db.Len(), xiNew)

		var ref mining.Count
		base := Timed(func() {
			ref = mining.Count{}
			if err := hmineMiner().Mine(db, min, &ref); err != nil {
				panic(err)
			}
		})

		// ξ_old walks from the paper's setting toward the point where no
		// recyclable patterns remain (hot probabilities/hierarchy tops are
		// all below the threshold).
		xiOlds := []float64{0.05, 0.07, 0.10, 0.12}
		if name == "connect4" {
			xiOlds = []float64{0.95, 0.96, 0.97, 0.985}
		}
		for _, xiOld := range xiOlds {
			var col mining.Collector
			if err := hmineMiner().Mine(db, MinCountAt(db.Len(), xiOld), &col); err != nil {
				panic(err)
			}
			cdb := core.Compress(db, col.Patterns, core.MCP)
			rec := Timed(func() {
				var c mining.Count
				if err := rphmineMiner().MineCDB(context.Background(), cdb, min, &c); err != nil {
					panic(err)
				}
			})
			fmt.Fprintf(tw, "%s\t%.3f\t%d\t%.3f\t%.3f\t%.3fs\t%.3fs\n",
				name, xiOld, len(col.Patterns), cdb.Stats().Ratio, xiNew,
				rec.Seconds(), base.Seconds())
		}
	}
	return tw.Flush()
}

// runAblationEngine compares the four compressed-database miners.
func runAblationEngine(cfg Config, w io.Writer) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "dataset\tξ_new\tengine\truntime")
	for _, name := range []string{"weather", "forest", "connect4", "pumsb"} {
		spec := SpecByName(name)
		db := Dataset(spec, cfg.Scale)
		cdb := CompressedDB(spec, cfg.Scale, core.MCP)
		xi := spec.Sweep[len(spec.Sweep)/2]
		min := MinCountAt(db.Len(), xi)
		for _, eng := range engines() {
			d := Timed(func() {
				var c mining.Count
				if err := eng.MineCDB(context.Background(), cdb, min, &c); err != nil {
					panic(err)
				}
			})
			fmt.Fprintf(tw, "%s\t%.3f\t%s\t%.3fs\n", name, xi, eng.Name(), d.Seconds())
		}
	}
	return tw.Flush()
}

// runAblationDedup compares mining over duplicate-collapsed databases
// (core.Dedup — no recycled patterns needed) against pattern compression
// and the plain baseline, on the dense datasets where duplication is high.
func runAblationDedup(cfg Config, w io.Writer) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "dataset\tξ_new\tdup ratio\tH-Mine\tRP-HM(dedup)\tRP-HM(MCP)")
	for _, name := range []string{"connect4", "pumsb", "weather"} {
		spec := SpecByName(name)
		db := Dataset(spec, cfg.Scale)
		dd := core.Dedup(db)
		cdb := CompressedDB(spec, cfg.Scale, core.MCP)
		xi := spec.Sweep[len(spec.Sweep)/2]
		min := MinCountAt(db.Len(), xi)

		var n mining.Count
		base := Timed(func() {
			n = mining.Count{}
			if err := hmineMiner().Mine(db, min, &n); err != nil {
				panic(err)
			}
		})
		dedup := Timed(func() {
			var c mining.Count
			if err := rphmineMiner().MineCDB(context.Background(), dd, min, &c); err != nil {
				panic(err)
			}
			if c.N != n.N {
				panic(fmt.Sprintf("bench: dedup mismatch %d vs %d", c.N, n.N))
			}
		})
		rec := Timed(func() {
			var c mining.Count
			if err := rphmineMiner().MineCDB(context.Background(), cdb, min, &c); err != nil {
				panic(err)
			}
		})
		fmt.Fprintf(tw, "%s\t%.3f\t%.3f\t%.3fs\t%.3fs\t%.3fs\n",
			name, xi, dd.Stats().Ratio, base.Seconds(), dedup.Seconds(), rec.Seconds())
	}
	return tw.Flush()
}
