// Quickstart: mine a database once, then recycle the result into a cheaper
// second round at a relaxed threshold — the paper's core loop in ~60 lines.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"gogreen/internal/core"
	"gogreen/internal/gen"
	"gogreen/internal/hmine"
	"gogreen/internal/mining"
	"gogreen/internal/rphmine"
)

func main() {
	// A synthetic market-basket database (the Weather stand-in, scaled
	// down; see cmd/gendata for files you can inspect).
	db := gen.Weather(0.02)
	st := db.Stats()
	fmt.Printf("database: %d transactions, avg length %.1f, %d items\n",
		st.NumTx, st.AvgLen, st.NumItems)

	// Round 1: ordinary mining at ξ_old = 5% with H-Mine.
	xiOld := mining.MinCount(db.Len(), 0.05)
	var round1 mining.Collector
	start := time.Now()
	if err := hmine.New().Mine(db, xiOld, &round1); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("round 1 (ξ=5%%):   %5d patterns in %v\n",
		len(round1.Patterns), time.Since(start).Round(time.Millisecond))

	// The user inspects the result, finds 5% too coarse, and relaxes to 1%.
	xiNew := mining.MinCount(db.Len(), 0.01)

	// Round 2a: the naive way — mine from scratch.
	var scratch mining.Count
	start = time.Now()
	if err := hmine.New().Mine(db, xiNew, &scratch); err != nil {
		log.Fatal(err)
	}
	fromScratch := time.Since(start)
	fmt.Printf("round 2 fresh:     %5d patterns in %v\n",
		scratch.N, fromScratch.Round(time.Millisecond))

	// Round 2b: recycle round 1. Phase one compresses the database using
	// the old patterns under the Minimize Cost Principle; phase two mines
	// the compressed database with the H-Mine adaptation.
	start = time.Now()
	cdb := core.Compress(db, round1.Patterns, core.MCP)
	compressT := time.Since(start)
	s := cdb.Stats()
	fmt.Printf("compression:       %d groups cover %d/%d tuples, ratio %.2f (%v)\n",
		s.NumGroups, s.Grouped, st.NumTx, s.Ratio, compressT.Round(time.Millisecond))

	var recycled mining.Count
	start = time.Now()
	if err := rphmine.New().MineCDB(context.Background(), cdb, xiNew, &recycled); err != nil {
		log.Fatal(err)
	}
	viaRecycling := time.Since(start)
	fmt.Printf("round 2 recycled:  %5d patterns in %v (%.1fx faster)\n",
		recycled.N, viaRecycling.Round(time.Millisecond),
		fromScratch.Seconds()/viaRecycling.Seconds())

	if recycled.N != scratch.N {
		log.Fatalf("recycling mismatch: %d vs %d patterns", recycled.N, scratch.N)
	}
	fmt.Println("both rounds found identical pattern sets ✓")
}
