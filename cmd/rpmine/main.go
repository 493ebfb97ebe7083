// Command rpmine mines frequent patterns from a basket-format file with any
// of the repository's algorithms, optionally recycling a previously saved
// pattern set (the paper's two-phase scheme) and saving the new result for
// the next iteration.
//
// A first iteration, saving its result:
//
//	rpmine -in data.basket -minsup 0.05 -save round1.fp
//
// A later iteration at a relaxed threshold, recycling round 1:
//
//	rpmine -in data.basket -minsup 0.02 -recycle round1.fp -algo rp-hmine
//
// A whole threshold sweep in one process, served through the materialized
// threshold lattice (each round filters or relax-mines from the previous
// rounds' rungs instead of starting cold; -save keeps the last round):
//
//	rpmine -in data.basket -minsup 0.05,0.02,0.01,0.02
//
// With -data-dir the lattice persists across invocations: rungs mined by one
// run are recovered by the next run on the same input, so separate processes
// sweep as cheaply as one (an input whose tuples changed resets its ladder):
//
//	rpmine -in data.basket -minsup 0.05 -data-dir .rpmine-cache
//	rpmine -in data.basket -minsup 0.05 -data-dir .rpmine-cache   # pure filter
//
// Every algorithm comes from the engine registry — run `rpmine -list` for
// the full catalogue: baselines (apriori, hmine, ...) and recycling engines
// (rp-naive, rp-hmine, ...; they use -recycle).
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"

	"gogreen/internal/core"
	"gogreen/internal/dataset"
	"gogreen/internal/engine"
	"gogreen/internal/memlimit"
	"gogreen/internal/mining"
	"gogreen/internal/patternio"
	"gogreen/internal/postmine"
	"gogreen/internal/store"
)

func main() {
	var (
		in       = flag.String("in", "", "input basket file (numeric item ids)")
		minsup   = flag.String("minsup", "0.01", "minimum support (fraction <1, or absolute count >=1); a comma-separated list runs a lattice-served sweep")
		dataDir  = flag.String("data-dir", "", "persist mined lattice rungs in this directory, so later invocations on the same input filter or relax instead of mining cold (implies the lattice serving path)")
		algo     = flag.String("algo", "hmine", "algorithm (see doc comment)")
		strategy = flag.String("strategy", "mcp", "compression strategy for recycling: mcp or mlp")
		recycle  = flag.String("recycle", "", "pattern file from an earlier round to recycle")
		save     = flag.String("save", "", "save the mined patterns to this file")
		outPath  = flag.String("out", "", "write patterns to this file (default: summary only)")
		memMB    = flag.Int("mem", 0, "memory budget in MB (0 = unlimited); hmine/rp-* only")
		list     = flag.Bool("list", false, "list the registered algorithms and exit")
		quiet    = flag.Bool("quiet", false, "suppress per-pattern output entirely")
		closed   = flag.Bool("closed", false, "report only closed patterns")
		maximal  = flag.Bool("maximal", false, "report only maximal patterns")
		minConf  = flag.Float64("rules", 0, "derive association rules at this confidence (0 = off)")
	)
	flag.Parse()
	if *list {
		listAlgorithms(os.Stdout)
		return
	}
	if *in == "" {
		fmt.Fprintln(os.Stderr, "rpmine: -in is required")
		flag.Usage()
		os.Exit(1)
	}

	db, err := dataset.ReadBasketIDsFile(*in)
	if err != nil {
		fatal(err)
	}
	mins, err := parseMinsups(*minsup, db.Len())
	if err != nil {
		fatal(err)
	}
	min := mins[len(mins)-1]
	st := db.Stats()
	fmt.Fprintf(os.Stderr, "loaded %d tuples (avg len %.1f, %d items); minsup=%d tuples\n",
		st.NumTx, st.AvgLen, st.NumItems, min)

	strat, err := core.ParseStrategy(*strategy)
	if err != nil {
		fatal(err)
	}

	var recycled []mining.Pattern
	recycledMin := 0
	if *recycle != "" {
		set, err := patternio.ReadFile(*recycle)
		if err != nil {
			fatal(err)
		}
		recycled = set.Patterns
		recycledMin = set.MinSupport
		fmt.Fprintf(os.Stderr, "recycling %d patterns from %s\n", len(recycled), *recycle)
	}

	var col mining.Collector
	var sink mining.Sink = &col
	var counter mining.Count
	needPatterns := *save != "" || *outPath != "" || *closed || *maximal || *minConf > 0
	if *quiet && !needPatterns {
		sink = &counter
	}

	start := time.Now()
	if len(mins) > 1 || *dataDir != "" {
		if *memMB > 0 {
			fatal(fmt.Errorf("-mem is not supported with a -minsup sweep or -data-dir"))
		}
		if err := sweep(db, mins, *algo, strat, recycled, recycledMin, *dataDir, *in, sink); err != nil {
			fatal(err)
		}
	} else if err := mine(db, min, *algo, strat, recycled, int64(*memMB)<<20, sink); err != nil {
		fatal(err)
	}
	elapsed := time.Since(start)

	n := len(col.Patterns)
	if sink == &counter {
		n = counter.N
	}
	fmt.Fprintf(os.Stderr, "%s found %d frequent patterns in %v\n", *algo, n, elapsed)

	if *closed {
		col.Patterns = postmine.Closed(col.Patterns)
		fmt.Fprintf(os.Stderr, "%d closed patterns\n", len(col.Patterns))
	}
	if *maximal {
		col.Patterns = postmine.Maximal(col.Patterns)
		fmt.Fprintf(os.Stderr, "%d maximal patterns\n", len(col.Patterns))
	}
	if *minConf > 0 {
		if *closed || *maximal {
			fatal(fmt.Errorf("-rules needs the complete pattern set; drop -closed/-maximal"))
		}
		rules := postmine.Rules(col.Patterns, *minConf, db.Len())
		fmt.Fprintf(os.Stderr, "%d rules at confidence >= %.2f\n", len(rules), *minConf)
		for i, r := range rules {
			if i == 20 {
				fmt.Fprintf(os.Stderr, "... (%d more)\n", len(rules)-20)
				break
			}
			fmt.Fprintf(os.Stderr, "  %v => %v  conf=%.2f lift=%.2f sup=%d\n",
				r.Antecedent, r.Consequent, r.Confidence, r.Lift, r.Support)
		}
	}

	if *save != "" {
		if err := patternio.WriteFile(*save, patternio.Set{Patterns: col.Patterns, MinSupport: min}); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "saved to %s\n", *save)
	}
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			fatal(err)
		}
		w := bufio.NewWriter(f)
		col.Sort()
		for _, p := range col.Patterns {
			for i, it := range p.Items {
				if i > 0 {
					w.WriteByte(' ')
				}
				w.WriteString(strconv.Itoa(int(it)))
			}
			fmt.Fprintf(w, " (%d)\n", p.Support)
		}
		if err := w.Flush(); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
	}
}

// parseMinsups parses the -minsup flag: each comma-separated entry is a
// fraction (<1) of |DB| or an absolute tuple count (>=1).
func parseMinsups(s string, dbLen int) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("rpmine: bad -minsup entry %q", f)
		}
		m := int(v)
		if v < 1 {
			m = mining.MinCount(dbLen, v)
		}
		out = append(out, m)
	}
	return out, nil
}

// sweep mines several thresholds in one process through the engine's
// cache-aware serving path: each round filters or relax-mines from the rungs
// earlier rounds installed, with the previous round's result as its prior.
// Only the last round streams into sink.
//
// With dataDir the lattice outlives the process: rungs persisted by earlier
// invocations on the same input are re-installed before round one, and every
// rung this sweep installs is written back, so a shell loop over thresholds
// recycles exactly like a long-lived session.
func sweep(db *dataset.DB, mins []int, algo string, strat core.Strategy, recycled []mining.Pattern, recycledMin int, dataDir, inPath string, sink mining.Sink) error {
	d, ok := engine.Lookup(algo)
	if !ok {
		return fmt.Errorf("rpmine: unknown algorithm %q (run rpmine -list)", algo)
	}
	p := engine.Pipeline{Strategy: strat, Cache: engine.SharedStore().Cache(db)}
	if d.Kind == engine.Fresh {
		p.Fresh = algo
	} else {
		p.Recycled = algo
	}

	var st *store.Store
	dbID := ""
	if dataDir != "" {
		var err error
		if st, err = store.Open(dataDir, store.Options{}); err != nil {
			return fmt.Errorf("rpmine: open -data-dir: %w", err)
		}
		defer st.Close()
		// Rungs are keyed by the input's base name and trusted only while the
		// stored database equals the input tuple for tuple; any change
		// rewrites it, which resets its persisted ladder.
		dbID = filepath.Base(inPath)
		old, err := st.LoadDB(dbID)
		if err != nil && !errors.Is(err, store.ErrNotFound) {
			return fmt.Errorf("rpmine: load stored input: %w", err)
		}
		if old == nil || !slices.EqualFunc(old.All(), db.All(), slices.Equal[[]dataset.Item]) {
			if err := st.PutDB(dbID, "local", db); err != nil {
				return fmt.Errorf("rpmine: persist input: %w", err)
			}
		} else {
			rungs, err := st.LoadRungs(dbID)
			if err != nil {
				return fmt.Errorf("rpmine: load rungs: %w", err)
			}
			for _, r := range rungs {
				p.Cache.Install(r.MinCount, r.Patterns)
			}
			if len(rungs) > 0 {
				fmt.Fprintf(os.Stderr, "lattice: %d persisted rungs recovered from %s\n", len(rungs), dataDir)
			}
		}
	}

	var prior *engine.Prior
	if len(recycled) > 0 && recycledMin >= 1 {
		prior = &engine.Prior{Patterns: recycled, MinCount: recycledMin, Label: "recycle-file"}
	}
	for i, m := range mins {
		run, err := p.Serve(context.Background(), db, prior, m, nil)
		if err != nil {
			return err
		}
		if st != nil && run.Installed != nil {
			if err := st.PutRung(dbID, run.Installed.MinCount, run.Installed.Patterns); err != nil {
				return fmt.Errorf("rpmine: persist rung: %w", err)
			}
		}
		from := string(run.Source)
		if run.BasedOn != "" {
			from += " from " + run.BasedOn
		}
		fmt.Fprintf(os.Stderr, "round %d: minsup=%d -> %d patterns (%s, cache %s, %v)\n",
			i+1, m, len(run.Patterns), from, run.Cache, run.Elapsed)
		if i == len(mins)-1 {
			for _, pat := range run.Patterns {
				sink.Emit(pat.Items, pat.Support)
			}
			return nil
		}
		prior = &engine.Prior{Patterns: run.Patterns, MinCount: m, Label: fmt.Sprintf("round-%d", i+1)}
	}
	return nil
}

// mine dispatches to the selected algorithm through the engine registry.
func mine(db *dataset.DB, min int, algo string, strat core.Strategy, recycled []mining.Pattern, budget int64, sink mining.Sink) error {
	d, ok := engine.Lookup(algo)
	if !ok {
		return fmt.Errorf("rpmine: unknown algorithm %q (run rpmine -list)", algo)
	}

	if d.Kind == engine.Fresh {
		if budget > 0 {
			if d.Name != "hmine" {
				return fmt.Errorf("rpmine: -mem supports only hmine among the baselines")
			}
			return memlimit.MineDB(db, min, memlimit.Config{Budget: budget}, sink)
		}
		m, err := engine.NewMiner(algo)
		if err != nil {
			return err
		}
		return m.Mine(db, min, sink)
	}

	if recycled == nil {
		fmt.Fprintln(os.Stderr, "note: no -recycle file; compressing with an empty pattern set (no grouping)")
	}
	cdb := core.Compress(db, recycled, strat)
	s := cdb.Stats()
	fmt.Fprintf(os.Stderr, "compressed: %d groups covering %d tuples, ratio %.3f\n",
		s.NumGroups, s.Grouped, s.Ratio)
	eng, err := engine.NewEngine(algo)
	if err != nil {
		return err
	}
	if budget > 0 {
		enc, ok := eng.(core.EncodedMiner)
		if !ok {
			return fmt.Errorf("rpmine: -mem does not support %s", algo)
		}
		return memlimit.MineCDB(cdb, min, memlimit.Config{Budget: budget, Engine: enc}, sink)
	}
	return eng.MineCDB(context.Background(), cdb, min, sink)
}

// listAlgorithms renders the registry catalogue behind -list.
func listAlgorithms(w *os.File) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "NAME\tKIND\tSUMMARY")
	for _, d := range engine.Descriptors() {
		fmt.Fprintf(tw, "%s\t%s\t%s\n", d.Name, d.Kind, d.Summary)
	}
	tw.Flush()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rpmine:", err)
	os.Exit(1)
}
