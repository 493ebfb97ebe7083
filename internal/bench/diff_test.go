package bench

import (
	"os"
	"path/filepath"
	"testing"
)

// TestLoadReportRoundTrip checks LoadReport reads back what PerfReport.JSON
// wrote, including the warning field.
func TestLoadReportRoundTrip(t *testing.T) {
	rep := PerfReport{Experiment: "mine", GOMAXPROCS: 4, Entries: []PerfEntry{
		{Experiment: "mine", Dataset: "connect4", Variant: "rp-hmine", GOMAXPROCS: 4, NsPerOp: 100, SpeedupVsSerial: 2.5},
	}}
	rep.Warning = "recorded with -allow-serial on NumCPU=1"
	path := filepath.Join(t.TempDir(), "BENCH_mine.json")
	if err := os.WriteFile(path, rep.JSON(), 0o644); err != nil {
		t.Fatal(err)
	}
	back, err := LoadReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Warning != rep.Warning || len(back.Entries) != len(rep.Entries) {
		t.Fatalf("round trip mangled: %+v", back)
	}
	if _, err := LoadReport(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("LoadReport accepted a missing file")
	}
}

// TestDiffReports pins the matching key (experiment, dataset, variant,
// gomaxprocs) and the one-sided buckets.
func TestDiffReports(t *testing.T) {
	old := PerfReport{Entries: []PerfEntry{
		{Experiment: "mine", Dataset: "connect4", Variant: "rp-hmine", GOMAXPROCS: 1, NsPerOp: 200, AllocsPerOp: 50, BytesPerOp: 4000},
		{Experiment: "mine", Dataset: "connect4", Variant: "rp-hmine", GOMAXPROCS: 4, NsPerOp: 220, AllocsPerOp: 50, BytesPerOp: 4000},
		{Experiment: "mine", Dataset: "connect4", Variant: "gone", GOMAXPROCS: 1, NsPerOp: 10},
	}}
	cur := PerfReport{Entries: []PerfEntry{
		{Experiment: "mine", Dataset: "connect4", Variant: "rp-hmine", GOMAXPROCS: 1, NsPerOp: 100, AllocsPerOp: 5, BytesPerOp: 400},
		{Experiment: "mine", Dataset: "connect4", Variant: "rp-hmine", GOMAXPROCS: 4, NsPerOp: 110, AllocsPerOp: 5, BytesPerOp: 400},
		{Experiment: "mine", Dataset: "connect4", Variant: "added", GOMAXPROCS: 1, NsPerOp: 10},
	}}
	rows, onlyOld, onlyNew := DiffReports(old, cur)
	if len(rows) != 2 {
		t.Fatalf("want 2 matched rows, got %d", len(rows))
	}
	r := rows[0]
	if r.Key != "mine/connect4/rp-hmine@p1" || r.NsRatio() != 0.5 || r.OldAllocs != 50 || r.NewAllocs != 5 {
		t.Errorf("row 0 = %+v (ratio %v)", r, r.NsRatio())
	}
	if len(onlyOld) != 1 || onlyOld[0] != "mine/connect4/gone@p1" {
		t.Errorf("onlyOld = %v", onlyOld)
	}
	if len(onlyNew) != 1 || onlyNew[0] != "mine/connect4/added@p1" {
		t.Errorf("onlyNew = %v", onlyNew)
	}
}
