package memlimit

import (
	"bufio"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"gogreen/internal/core"
	"gogreen/internal/dataset"
)

// TestSpillRoundTrip writes blocks and tuples and reads them back.
func TestSpillRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "part.bin")
	w, err := newPartWriter(path)
	if err != nil {
		t.Fatal(err)
	}
	b := core.Block{
		Suffix: []dataset.Item{2, 5, 9},
		Count:  4,
		Tails:  [][]dataset.Item{{1, 3}, {4}, {6, 7, 8}},
	}
	// Projection on suffix item 2: suffix {5,9}, all four members.
	w.writeProjectedBlock(&b, 2)
	// Projection on tail item 3: one member ({1,3} -> tail {} after 3).
	w.writeBucketedBlock(&b, 3, []int32{0})
	w.writeTuple([]dataset.Item{10, 20})
	if err := w.closeFlush(); err != nil {
		t.Fatal(err)
	}

	blocks, loose, err := readCDBPart(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(blocks) != 2 || len(loose) != 1 {
		t.Fatalf("got %d blocks, %d loose", len(blocks), len(loose))
	}
	if blocks[0].Count != 4 || len(blocks[0].Suffix) != 2 || len(blocks[0].Tails) != 3 {
		t.Errorf("block 0 = %+v", blocks[0])
	}
	if blocks[1].Count != 1 || len(blocks[1].Tails) != 0 {
		t.Errorf("block 1 = %+v", blocks[1])
	}
	if loose[0][0] != 10 || loose[0][1] != 20 {
		t.Errorf("loose = %v", loose)
	}
}

// TestSpillDegenerateBlock: projecting past the last pattern item writes
// tuple records instead of a block.
func TestSpillDegenerateBlock(t *testing.T) {
	path := filepath.Join(t.TempDir(), "part.bin")
	w, err := newPartWriter(path)
	if err != nil {
		t.Fatal(err)
	}
	b := core.Block{Suffix: []dataset.Item{2}, Count: 2, Tails: [][]dataset.Item{{5, 6}, {1}}}
	w.writeProjectedBlock(&b, 2) // suffix empties
	if err := w.closeFlush(); err != nil {
		t.Fatal(err)
	}
	blocks, loose, err := readCDBPart(path)
	if err != nil {
		t.Fatal(err)
	}
	// Tail {1} empties after item 2; only {5,6} survives.
	if len(blocks) != 0 || len(loose) != 1 || len(loose[0]) != 2 {
		t.Fatalf("blocks=%v loose=%v", blocks, loose)
	}
}

// failAfter fails every Write once n bytes have been accepted.
type failAfter struct {
	n   int
	err error
}

func (f *failAfter) Write(p []byte) (int, error) {
	if f.n <= 0 {
		return 0, f.err
	}
	if len(p) > f.n {
		n := f.n
		f.n = 0
		return n, f.err
	}
	f.n -= len(p)
	return len(p), nil
}

// TestSpillWriteErrorSticky: a failing disk mid-spill poisons the writer —
// the record that hits the failure reports it, every later record reports
// it too (instead of silently truncating the partition), and closeFlush
// returns the original error.
func TestSpillWriteErrorSticky(t *testing.T) {
	path := filepath.Join(t.TempDir(), "part.bin")
	w, err := newPartWriter(path)
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("disk full")
	// Tiny buffer over the failing device so errors surface per record, the
	// same shape newPartWriter builds over the real file.
	w.w = bufio.NewWriterSize(&failAfter{n: 8, err: boom}, 4)

	long := make([]dataset.Item, 64)
	for i := range long {
		long[i] = dataset.Item(i + 1)
	}
	if err := w.writeTuple(long); !errors.Is(err, boom) {
		t.Fatalf("writeTuple over full disk = %v, want %v", err, boom)
	}
	// Sticky: subsequent records fail fast without touching the device.
	b := core.Block{Suffix: []dataset.Item{2, 5}, Count: 1, Tails: [][]dataset.Item{{3}}}
	if err := w.writeProjectedBlock(&b, 2); !errors.Is(err, boom) {
		t.Fatalf("writeProjectedBlock after poison = %v, want %v", err, boom)
	}
	if err := w.writeBucketedBlock(&b, 3, []int32{0}); !errors.Is(err, boom) {
		t.Fatalf("writeBucketedBlock after poison = %v, want %v", err, boom)
	}
	if err := w.closeFlush(); !errors.Is(err, boom) {
		t.Fatalf("closeFlush after poison = %v, want %v", err, boom)
	}
}

// TestSpillCorruption: truncated and garbage files surface
// ErrCorruptPartition rather than bad data or panics.
func TestSpillCorruption(t *testing.T) {
	dir := t.TempDir()
	cases := []struct {
		name string
		data []byte
	}{
		{"bad tag", []byte{7}},
		{"truncated tuple", []byte{0, 3, 1}},
		{"truncated block", []byte{1, 2, 1, 1}},
		{"huge count", []byte{0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}},
		// A partition of an uncompressed database holds only tuples.
		{"tuples then truncated tuple", []byte{0, 2, 1, 1, 0, 3, 1}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			path := filepath.Join(dir, c.name)
			if err := os.WriteFile(path, c.data, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, _, err := readCDBPart(path); !errors.Is(err, ErrCorruptPartition) {
				t.Errorf("readCDBPart: err = %v, want ErrCorruptPartition", err)
			}
		})
	}
	if _, _, err := readCDBPart(filepath.Join(dir, "missing")); err == nil {
		t.Error("missing file should error")
	}
}
