// Report comparison: loading recorded BENCH_*.json baselines and the
// entry-by-entry comparison behind rpbench -diff.
package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// LoadReport reads and decodes one BENCH_*.json file.
func LoadReport(path string) (PerfReport, error) {
	var rep PerfReport
	b, err := os.ReadFile(path)
	if err != nil {
		return rep, err
	}
	if err := json.Unmarshal(b, &rep); err != nil {
		return rep, fmt.Errorf("%s: %w", path, err)
	}
	return rep, nil
}

// DiffRow is one entry-level comparison between two reports.
type DiffRow struct {
	Key                  string // "experiment/dataset/variant@pN"
	OldNs, NewNs         float64
	OldAllocs, NewAllocs int64
	OldBytes, NewBytes   int64
}

// NsRatio is new/old time (< 1 means the new report is faster).
func (d DiffRow) NsRatio() float64 {
	if d.OldNs == 0 {
		return 0
	}
	return d.NewNs / d.OldNs
}

// DiffReports matches entries of two reports by (experiment, dataset,
// variant, gomaxprocs) and returns the common rows in the new report's
// order, plus keys present in only one side. Entries without alloc data
// (phase rows) still diff on time.
func DiffReports(old, cur PerfReport) (rows []DiffRow, onlyOld, onlyNew []string) {
	key := func(e PerfEntry) string {
		return fmt.Sprintf("%s/%s/%s@p%d", e.Experiment, e.Dataset, e.Variant, e.GOMAXPROCS)
	}
	oldBy := make(map[string]PerfEntry, len(old.Entries))
	for _, e := range old.Entries {
		oldBy[key(e)] = e
	}
	seen := make(map[string]bool, len(cur.Entries))
	for _, e := range cur.Entries {
		k := key(e)
		seen[k] = true
		o, ok := oldBy[k]
		if !ok {
			onlyNew = append(onlyNew, k)
			continue
		}
		rows = append(rows, DiffRow{
			Key:   k,
			OldNs: o.NsPerOp, NewNs: e.NsPerOp,
			OldAllocs: o.AllocsPerOp, NewAllocs: e.AllocsPerOp,
			OldBytes: o.BytesPerOp, NewBytes: e.BytesPerOp,
		})
	}
	for k := range oldBy {
		if !seen[k] {
			onlyOld = append(onlyOld, k)
		}
	}
	sort.Strings(onlyOld)
	sort.Strings(onlyNew)
	return rows, onlyOld, onlyNew
}
