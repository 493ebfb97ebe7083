// Package twostep implements the paper's stated future work (Section 5.2,
// observation 1): "we could split a new mining task with low minimum
// support into two steps: (a) we first run it with a high minimum support;
// (b) we then compress the database with the strategy MCP and mine the
// compressed database with the actual low minimum support." Here there is
// no previous iteration at all — recycling is used as an internal
// optimization of a single cold mining task.
//
// Three entry points:
//
//   - Mine: the literal two-step split with a configurable intermediate
//     threshold factor.
//   - Progressive: a geometric cascade of thresholds, each round recycling
//     the previous one's patterns, ending at the target.
//   - TopK: mine the K best patterns by support without choosing a
//     threshold — the cascade relaxes until K patterns exist, recycling as
//     it goes, then returns the top K.
//
// The ablation experiment "ablation-twostep" measures when the split beats
// direct mining (answering the paper's open question on our stand-ins).
package twostep

import (
	"context"
	"fmt"
	"sort"

	"gogreen/internal/core"
	"gogreen/internal/dataset"
	"gogreen/internal/engine"
	"gogreen/internal/mining"
)

// Options configures the two-step strategies.
type Options struct {
	// Engine names the compressed-database miner by canonical registry
	// name, e.g. "rp-hmine" (default engine.DefaultRecycled, "rp-fptree").
	Engine string
	// Strategy ranks patterns for compression (default MCP, as the paper
	// proposes).
	Strategy core.Strategy
	// Factor is the ratio between the intermediate and target thresholds
	// for Mine, and between consecutive cascade steps for Progressive and
	// TopK (default 4, minimum 2).
	Factor int
	// Lattice serves cascade rounds from, and installs them into, the
	// process-wide threshold ladder keyed by the database (off by default),
	// so repeated two-step tasks over one database skip the rounds a
	// previous task already materialized.
	Lattice bool
}

func (o Options) factor() int {
	if o.Factor < 2 {
		return 4
	}
	return o.Factor
}

// pipeline assembles the engine pipeline the strategies run through: fresh
// FP-growth seeds, the configured engine mines the compressed cascade rounds,
// and the optional lattice is attached keyed by db.
func (o Options) pipeline(db *dataset.DB) engine.Pipeline {
	name := o.Engine
	if name == "" {
		name = engine.DefaultRecycled
	}
	p := engine.Pipeline{Recycled: name, Strategy: o.Strategy}
	if o.Lattice {
		p.Cache = engine.SharedStore().Cache(db)
	}
	return p
}

// seedLabel names a cascade round's seed set for Result.BasedOn.
func seedLabel(minCount int) string { return fmt.Sprintf("seed-%d", minCount) }

// Mine runs the literal two-step split: a cheap pass at an intermediate
// threshold, then compression with those patterns and a full mine at
// minCount. The result is the complete frequent-pattern set at minCount.
//
// The intermediate threshold scales multiplicatively in the sparse regime
// (factor × minCount) and on the margin to |DB| in the dense regime —
// thresholds like 92% of a dense database leave no room above for a
// multiple, but 98% is still a much cheaper seed task.
func Mine(db *dataset.DB, minCount int, opts Options, sink mining.Sink) error {
	if minCount < 1 {
		return mining.ErrBadMinSupport
	}
	mid := intermediate(minCount, db.Len(), opts.factor())
	pipe := opts.pipeline(db)
	seed, err := pipe.Serve(context.Background(), db, nil, mid, nil)
	if err != nil {
		return err
	}
	prior := &engine.Prior{Patterns: seed.Patterns, MinCount: mid, Label: seedLabel(mid)}
	_, err = pipe.Serve(context.Background(), db, prior, minCount, sink)
	return err
}

// intermediate picks the seed threshold above target for one split step.
// In the dense regime the seed sits a fraction of the remaining margin
// above the target — close enough to keep the structure that makes
// compression useful (a seed near |DB| would find nothing recyclable),
// far enough to be much cheaper than the target task.
func intermediate(target, dbLen, f int) int {
	if target > dbLen/2 && dbLen > target {
		return target + (dbLen-target)/f
	}
	return target * f
}

// Progressive cascades from a high threshold down to minCount
// geometrically, recycling each round into the next. Intermediate rounds
// only produce seed patterns; only the final round streams into sink.
func Progressive(db *dataset.DB, minCount int, opts Options, sink mining.Sink) error {
	if minCount < 1 {
		return mining.ErrBadMinSupport
	}
	f := opts.factor()
	ladder := thresholdLadder(minCount, db.Len(), f)
	pipe := opts.pipeline(db)
	var prior *engine.Prior
	for i, t := range ladder {
		last := i == len(ladder)-1
		var dst mining.Sink
		if last {
			dst = sink
		}
		run, err := pipe.Serve(context.Background(), db, prior, t, dst)
		if err != nil {
			return err
		}
		if last {
			return nil
		}
		prior = &engine.Prior{Patterns: run.Patterns, MinCount: t, Label: seedLabel(t)}
	}
	return nil
}

// TopK returns the k patterns with the highest supports (ties broken by
// shorter length, then item order, so the result is deterministic). The
// threshold is discovered by cascading downward with recycling until at
// least k patterns are frequent.
func TopK(db *dataset.DB, k int, opts Options) ([]mining.Pattern, error) {
	if k < 1 {
		return nil, mining.ErrBadMinSupport
	}
	if db.Len() == 0 {
		return nil, nil
	}
	f := opts.factor()
	threshold := db.Len()
	pipe := opts.pipeline(db)
	var prior *engine.Prior
	var fp []mining.Pattern
	for {
		run, err := pipe.Serve(context.Background(), db, prior, threshold, nil)
		if err != nil {
			return nil, err
		}
		fp = run.Patterns
		if len(fp) >= k || threshold == 1 {
			break
		}
		prior = &engine.Prior{Patterns: fp, MinCount: threshold, Label: seedLabel(threshold)}
		threshold /= f
		if threshold < 1 {
			threshold = 1
		}
	}
	sort.Slice(fp, func(i, j int) bool {
		a, b := fp[i], fp[j]
		if a.Support != b.Support {
			return a.Support > b.Support
		}
		if len(a.Items) != len(b.Items) {
			return len(a.Items) < len(b.Items)
		}
		for x := range a.Items {
			if a.Items[x] != b.Items[x] {
				return a.Items[x] < b.Items[x]
			}
		}
		return false
	})
	if len(fp) > k {
		fp = fp[:k]
	}
	return fp, nil
}

// thresholdLadder builds the descending cascade of thresholds ending at
// target. Dense regime: rungs at target + margin/f^k, already descending
// in k (the cold first rung is the cheapest informative seed). Sparse
// regime: rungs at target·f^k, built ascending then reversed.
func thresholdLadder(target, dbLen, f int) []int {
	var mids []int
	if target > dbLen/2 && dbLen > target {
		for m := (dbLen - target) / f; m >= 1; m /= f {
			mids = append(mids, target+m) // descending thresholds
			if m == 1 {
				break
			}
		}
	} else {
		for t := target * f; t <= dbLen; t *= f {
			mids = append(mids, t) // ascending; reversed below
		}
		for i, j := 0, len(mids)-1; i < j; i, j = i+1, j-1 {
			mids[i], mids[j] = mids[j], mids[i]
		}
	}
	return append(mids, target)
}
