// Command perfbench is the repository benchmark. It drives the real service
// in-process through server.Handler() — no sockets — on one of three
// workloads, checks every response against an Apriori oracle, and prints one
// JSON result line:
//
//	perfbench --workload recycle-session|zipf-serve|durable-churn \
//	    --seed N --seconds S --trace 0|1
//
// With --trace 0 it reports the end-to-end metrics of an untraced run. With
// --trace 1 it runs the same inputs twice — untraced, then traced, each from
// a fresh set-up — replays every traced request through the public calls of
// the layers the server composes, writes the spans to the work directory and
// reports per-layer metrics derived from them. BENCHMARK.json at the
// repository root records the workloads, metrics and the reasoning behind
// them. Any failed check makes the command exit with status 1.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	workloadName := flag.String("workload", "", "recycle-session, zipf-serve or durable-churn")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	work := flag.String("work", filepath.Join(".bench_build", "perfbench"), "working directory for data directories and spans")
	flag.Parse()
	if err := run(*workloadName, *seed, *seconds, *trace == 1, *work); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// errIncorrect reports a run whose checks failed after its result printed.
var errIncorrect = errors.New("correctness checks failed")

func run(name string, seed int64, seconds int, traced bool, workRoot string) error {
	if seconds < 1 {
		return fmt.Errorf("--seconds must be >= 1")
	}
	w, err := newWorkload(name, seed, seconds)
	if err != nil {
		return err
	}
	work := filepath.Join(workRoot, fmt.Sprintf("%s-%d-%d", name, seed, os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(work)

	t0 := time.Now()
	b := &bench{w: w, or: newOracle(w), work: work, epoch: time.Now(), tally: &tally{}}
	logf("%s seed %d: oracle over %d contents in %v", name, seed, len(w.contents), time.Since(t0).Round(time.Millisecond))
	if w.durable {
		if err := b.prewrite(); err != nil {
			return fmt.Errorf("pre-write data directory: %w", err)
		}
	}
	// A fixed P count per workload, and collection pacing fixed whatever the
	// environment says.
	runtime.GOMAXPROCS(w.procs)
	debug.SetGCPercent(100)

	var ms map[string]metric
	var fidelityErr error
	if traced {
		ms, fidelityErr, err = b.tracedRun(time.Duration(seconds) * time.Second)
	} else {
		ms, err = b.untracedRun(time.Duration(seconds) * time.Second)
	}
	if err != nil {
		return err
	}
	res := result{Correct: b.tally.failed == 0 && fidelityErr == nil,
		Attempted: b.tally.attempted, Failed: b.tally.failed, Metrics: ms}
	for _, m := range b.tally.msgs {
		logf("FAILED: %s", m)
	}
	if fidelityErr != nil {
		logf("FAILED: %v", fidelityErr)
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	if !res.Correct {
		return errIncorrect
	}
	return nil
}

// untracedRun sets up setupRuns times (setup_s is the median, each set-up
// scaled by the reference kernel runs just before it), keeps the last
// server, measures the window and runs the correctness checks.
func (b *bench) untracedRun(d time.Duration) (map[string]metric, error) {
	var setups []float64
	var p *pass
	for i := 0; i < setupRuns; i++ {
		if p != nil {
			if err := p.close(); err != nil {
				return nil, err
			}
		}
		// Each set-up starts from a collected heap, the kernel runs included.
		runtime.GC()
		ref := refMedian(setupRefRuns, b.clock)
		var took time.Duration
		var err error
		if p, took, err = b.setup(nil); err != nil {
			return nil, err
		}
		setups = append(setups, took.Seconds()*float64(refNominal)/ref)
		logf("set-up %d: %.4f s, reference kernel %.1f us", i+1, took.Seconds(), ref/usec)
	}
	res := p.window(d, nil)
	if err := b.finish(p); err != nil {
		return nil, err
	}
	return endToEnd(b.w, res, setups), nil
}

// finish runs the post-window checks and closes the pass's server.
func (b *bench) finish(p *pass) error {
	if b.w.durable {
		if err := b.checkDurable(p); err != nil {
			return err
		}
		return os.RemoveAll(p.dir)
	}
	b.verifySets(p.h)
	return p.close()
}

// endToEnd derives the end-to-end metrics of an untraced window: every
// duration scaled to the reference host at the time it started.
func endToEnd(w *workload, res windowResult, setups []float64) map[string]metric {
	hs := newHostScale(res.refs)
	var hit, mined, mine, write []int64
	var rawHit, rawMined []int64
	for _, s := range res.samples {
		ns := hs.scaled(s.ns, s.at-res.startNs)
		switch s.class {
		case classHit:
			hit = append(hit, ns)
			mine = append(mine, ns)
			rawHit = append(rawHit, s.ns)
		case classMined:
			mined = append(mined, ns)
			mine = append(mine, ns)
			rawMined = append(rawMined, s.ns)
		case classWrite:
			write = append(write, ns)
		}
	}
	sess := make([]float64, len(res.sessions))
	for i, s := range res.sessions {
		sess[i] = float64(hs.scaled(s.ns, s.at-res.startNs))
	}
	logf("reference kernel: median %.1f us over %d runs; unscaled hit p50 %.4f ms, mined p50 %.4f ms",
		hs.median/usec, len(res.refs), quantile(rawHit, 0.5)/msec, quantile(rawMined, 0.5)/msec)
	ms := map[string]metric{
		"setup_s":      {medianFloat(setups), "s"},
		"hit_p50_ms":   {quantile(hit, 0.5) / msec, "ms"},
		"mined_p50_ms": {quantile(mined, 0.5) / msec, "ms"},
		"mine_p99_ms":  {blockTail(mine, 0.99) / msec, "ms"},
		"session_s":    {medianFloat(sess) / sec, "s"},
		"write_p99_ms": {blockTail(write, 0.99) / msec, "ms"},
		"write_p50_ms": {quantile(write, 0.5) / msec, "ms"},
		"peak_heap_mb": {float64(res.peakHeap) / (1 << 20), "MiB"},
	}
	logf("window: %d requests: %d hits, %d mined, %d writes, %d sessions", res.requests,
		len(hit), len(mined), len(write), len(res.sessions))
	for _, t := range []struct {
		name string
		n    int
	}{{"mine_p99_ms", len(mine)}, {"write_p99_ms", len(write)}} {
		if blocks := t.n / 1001; blocks >= 2 {
			logf("%s: median over %d blocks of the block p99, %d samples", t.name, blocks, t.n)
		} else {
			logf("%s: p%.4g over %d samples", t.name, 100*supported(t.n, 0.99), t.n)
		}
	}
	return ms
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
}
