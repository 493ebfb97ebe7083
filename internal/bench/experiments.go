package bench

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"text/tabwriter"

	"gogreen/internal/core"
	"gogreen/internal/dataset"
	"gogreen/internal/engine"
	"gogreen/internal/memlimit"
	"gogreen/internal/mining"
)

// family pairs a non-recycling baseline with its recycling adaptation, both
// resolved from the engine registry by canonical name.
type family struct {
	label    string
	baseline mining.Miner
	engine   core.CDBMiner
}

func families() []family {
	return []family{
		{"HM", registryMiner("hmine"), registryEngine("rp-hmine")},
		{"FP", registryMiner("fptree"), registryEngine("rp-fptree")},
		{"TP", registryMiner("treeproj"), registryEngine("rp-treeproj")},
	}
}

func init() {
	register(Experiment{
		ID:    "table3",
		Title: "Dataset properties and compression statistics",
		Paper: "Table 3: tuples/avg-len/items per dataset; #patterns and max length at ξ_old; compression run time (I/O and pipeline) and ratio for MCP and MLP",
		Run:   runTable3,
	})
	for i, spec := range Specs {
		for j, fam := range families() {
			id := fmt.Sprintf("fig%d", 9+3*i+j)
			spec, fam := spec, fam
			register(Experiment{
				ID:    id,
				Title: fmt.Sprintf("%s family on %s: runtime vs ξ_new (ξ_old=%g)", fam.label, spec.Name, spec.XiOld),
				Paper: fmt.Sprintf("Figure %s: %s vs %s-MCP vs %s-MLP on %s; recycling wins, MCP ≥ MLP", id[3:], fam.label, fam.label, fam.label, spec.Name),
				Run: func(cfg Config, w io.Writer) error {
					return runFigure(cfg, w, &spec, fam)
				},
			})
		}
	}
	for i, spec := range Specs {
		id := fmt.Sprintf("fig%d", 21+i)
		spec := spec
		register(Experiment{
			ID:    id,
			Title: fmt.Sprintf("Memory-limited mining on %s: H-Mine vs HM-MCP at 4 MB and 8 MB", spec.Name),
			Paper: fmt.Sprintf("Figure %s: with 4/8 MB budgets, HM-MCP outperforms H-Mine on %s", id[3:], spec.Name),
			Run: func(cfg Config, w io.Writer) error {
				return runMemFigure(cfg, w, &spec)
			},
		})
	}
}

// runTable3 regenerates Table 3.
func runTable3(cfg Config, w io.Writer) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "dataset\t#tuples\tavg.len\t#items\tξ_old\t#patterns\tmax.len\tstrategy\truntime(I/O)\truntime(pipeline)\tratio")
	for i := range Specs {
		spec := &Specs[i]
		db := Dataset(spec, cfg.Scale)
		st := db.Stats()
		fp := RecycledPatterns(spec, cfg.Scale)
		maxLen := 0
		for _, p := range fp {
			if len(p.Items) > maxLen {
				maxLen = len(p.Items)
			}
		}
		for _, strat := range []core.Strategy{core.MCP, core.MLP} {
			var cdb *core.CDB
			// Pipeline time: compression only (the paper's column that
			// deducts I/O, since compression can ride along with the
			// projection pass a miner performs anyway).
			pipeline := Timed(func() {
				cdb = core.Compress(db, fp, strat)
			})
			// I/O time: reading the database from disk and writing the
			// compressed result back, around the same compression.
			dir, err := os.MkdirTemp(cfg.TempDir, "gogreen-table3-")
			if err != nil {
				return err
			}
			raw := filepath.Join(dir, "db.basket")
			if err := dataset.WriteBasketFile(raw, db); err != nil {
				os.RemoveAll(dir)
				return err
			}
			withIO := Timed(func() {
				rdb, err := dataset.ReadBasketIDsFile(raw)
				if err != nil {
					panic(err)
				}
				c := core.Compress(rdb, fp, strat)
				if err := writeCDB(filepath.Join(dir, "db.cdb"), c); err != nil {
					panic(err)
				}
			})
			os.RemoveAll(dir)
			s := cdb.Stats()
			fmt.Fprintf(tw, "%s\t%d\t%.1f\t%d\t%.3f\t%d\t%d\t%s\t%.2fs\t%.2fs\t%.3f\n",
				spec.Name, st.NumTx, st.AvgLen, st.NumItems, spec.XiOld,
				len(fp), maxLen, strat, withIO.Seconds(), pipeline.Seconds(), s.Ratio)
		}
	}
	return tw.Flush()
}

// writeCDB persists a compressed database as text (groups then loose), the
// "write" half of Table 3's I/O accounting.
func writeCDB(path string, cdb *core.CDB) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	for i := range cdb.Groups {
		g := &cdb.Groups[i]
		fmt.Fprintf(f, "g %v %d\n", g.Pattern, g.Count())
		for _, t := range g.Tails {
			fmt.Fprintf(f, "t %v\n", t)
		}
	}
	for _, t := range cdb.Loose {
		fmt.Fprintf(f, "l %v\n", t)
	}
	return f.Close()
}

// runFigure regenerates one of figures 9-20: runtime vs ξ_new for a
// baseline and its two recycling variants. Mining output is counted, not
// materialized, matching the paper's exclusion of output time.
func runFigure(cfg Config, w io.Writer, spec *DatasetSpec, fam family) error {
	db := Dataset(spec, cfg.Scale)
	cdbMCP := CompressedDB(spec, cfg.Scale, core.MCP)
	cdbMLP := CompressedDB(spec, cfg.Scale, core.MLP)

	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "ξ_new\t#patterns\t%s\t%s-MCP\t%s-MLP\tspeedup(MCP)\n", fam.label, fam.label, fam.label)
	for _, xi := range cfg.sweepOf(spec.Sweep) {
		min := MinCountAt(db.Len(), xi)
		var n mining.Count
		base := Timed(func() {
			n = mining.Count{}
			if err := fam.baseline.Mine(db, min, &n); err != nil {
				panic(err)
			}
		})
		patterns := n.N
		mcp := Timed(func() {
			var c mining.Count
			if err := fam.engine.MineCDB(context.Background(), cdbMCP, min, &c); err != nil {
				panic(err)
			}
			if c.N != patterns {
				panic(fmt.Sprintf("bench: %s-MCP found %d patterns, baseline %d", fam.label, c.N, patterns))
			}
		})
		mlp := Timed(func() {
			var c mining.Count
			if err := fam.engine.MineCDB(context.Background(), cdbMLP, min, &c); err != nil {
				panic(err)
			}
			if c.N != patterns {
				panic(fmt.Sprintf("bench: %s-MLP found %d patterns, baseline %d", fam.label, c.N, patterns))
			}
		})
		fmt.Fprintf(tw, "%.3f\t%d\t%.3fs\t%.3fs\t%.3fs\t%.1fx\n",
			xi, patterns, base.Seconds(), mcp.Seconds(), mlp.Seconds(),
			base.Seconds()/mcp.Seconds())
	}
	return tw.Flush()
}

// runMemFigure regenerates one of figures 21-24: memory-limited H-Mine vs
// HM-MCP at 4 MB and 8 MB budgets.
func runMemFigure(cfg Config, w io.Writer, spec *DatasetSpec) error {
	db := Dataset(spec, cfg.Scale)
	cdb := CompressedDB(spec, cfg.Scale, core.MCP)

	// Budgets scale with the data so the disk path actually triggers at
	// bench scales: the paper's 4/8 MB assume paper-sized datasets.
	full := memlimit.EstimateCDBBytes(nil, db.All())
	budgets := []int64{4 << 20, 8 << 20}
	if full <= budgets[0] {
		budgets = []int64{full / 4, full / 2}
	}

	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "ξ_new\tbudget\tH-Mine\tHM-MCP\tspeedup")
	for _, xi := range cfg.sweepOf(spec.MemSweep) {
		min := MinCountAt(db.Len(), xi)
		for _, budget := range budgets {
			mcfg := memlimit.Config{Budget: budget, TempDir: cfg.TempDir}
			var patterns int
			base := Timed(func() {
				var c mining.Count
				if err := memlimit.MineDB(db, min, mcfg, &c); err != nil {
					panic(err)
				}
				patterns = c.N
			})
			rec := Timed(func() {
				var c mining.Count
				if err := memlimit.MineCDB(cdb, min, mcfg, &c); err != nil {
					panic(err)
				}
				if c.N != patterns {
					panic(fmt.Sprintf("bench: memlimit HM-MCP found %d patterns, H-Mine %d", c.N, patterns))
				}
			})
			fmt.Fprintf(tw, "%.3f\t%s\t%.3fs\t%.3fs\t%.1fx\n",
				xi, humanBytes(budget), base.Seconds(), rec.Seconds(),
				base.Seconds()/rec.Seconds())
		}
	}
	return tw.Flush()
}

// registryMiner and registryEngine resolve canonical names through the
// engine registry; an unknown name is a bench bug, not an input error.
func registryMiner(name string) mining.Miner {
	m, err := engine.NewMiner(name)
	if err != nil {
		panic(err)
	}
	return m
}

func registryEngine(name string) core.CDBMiner {
	e, err := engine.NewEngine(name)
	if err != nil {
		panic(err)
	}
	return e
}

// hmineMiner, rphmineMiner and engines centralize miner construction for
// the ablation experiments.
func hmineMiner() mining.Miner    { return registryMiner("hmine") }
func rphmineMiner() core.CDBMiner { return registryEngine("rp-hmine") }

// engines returns every recycled engine the registry carries, so a
// newly registered engine joins the ablation grid automatically.
func engines() []core.CDBMiner {
	var out []core.CDBMiner
	for _, d := range engine.Descriptors() {
		if d.Kind == engine.Recycled {
			out = append(out, d.Engine())
		}
	}
	return out
}

// humanBytes renders a budget compactly.
func humanBytes(b int64) string {
	switch {
	case b >= 1<<20:
		return fmt.Sprintf("%dMB", b>>20)
	case b >= 1<<10:
		return fmt.Sprintf("%dKB", b>>10)
	default:
		return fmt.Sprintf("%dB", b)
	}
}
