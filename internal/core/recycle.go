package core

import (
	"context"
	"fmt"

	"gogreen/internal/dataset"
	"gogreen/internal/mining"
)

// Recycler turns a CDBMiner into a mining.Miner: Mine compresses the
// database with the recycled patterns FP under Strategy, then mines the
// compressed database. This is the two-phase scheme of Section 3 packaged
// behind the same interface as the non-recycling baselines, so the two can
// be swapped and compared directly.
type Recycler struct {
	// FP is the set of frequent patterns from an earlier round of mining
	// (at a more restrictive constraint setting).
	FP []mining.Pattern
	// Strategy ranks FP for compression (MCP or MLP).
	Strategy Strategy
	// Engine mines the compressed database. Nil means the naive miner.
	Engine CDBMiner
	// CompressWorkers shards the compression phase; <= 0 means GOMAXPROCS.
	// Output is byte-identical at any worker count.
	CompressWorkers int
}

// Name implements mining.Miner, e.g. "rp-hmine-MCP".
func (r *Recycler) Name() string {
	return fmt.Sprintf("%s-%s", r.engine().Name(), r.Strategy)
}

func (r *Recycler) engine() CDBMiner {
	if r.Engine == nil {
		return Naive{}
	}
	return r.Engine
}

// Mine implements mining.Miner.
func (r *Recycler) Mine(db *dataset.DB, minCount int, sink mining.Sink) error {
	return r.MineContext(context.Background(), db, minCount, sink)
}

// MineContext implements mining.ContextMiner: both phases — compression and
// compressed-database mining — honor ctx.
func (r *Recycler) MineContext(ctx context.Context, db *dataset.DB, minCount int, sink mining.Sink) error {
	if minCount < 1 {
		return mining.ErrBadMinSupport
	}
	cdb, err := CompressParallel(ctx, db, r.FP, r.Strategy, r.CompressWorkers)
	if err != nil {
		return err
	}
	return r.engine().MineCDB(ctx, cdb, minCount, sink)
}

// FilterTightened implements the easy direction of recycling (Section 2):
// when constraints are tightened — here, the minimum support raised to
// minCount — the new result set is exactly the old patterns that still
// qualify, with their supports unchanged. No re-mining is needed.
func FilterTightened(fp []mining.Pattern, minCount int) []mining.Pattern {
	out := make([]mining.Pattern, 0, len(fp))
	for _, p := range fp {
		if p.Support >= minCount {
			out = append(out, p)
		}
	}
	return out
}
