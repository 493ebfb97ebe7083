package memlimit

import (
	"bufio"
	"bytes"
	"io"
	"testing"

	"gogreen/internal/core"
	"gogreen/internal/dataset"
)

func newTestBufio(w io.Writer) *bufio.Writer { return bufio.NewWriterSize(w, 4096) }

// spillSeed serializes a representative record mix through the real writer,
// giving the fuzzers a structurally valid corpus to mutate from.
func spillSeed(t interface{ Fatal(...any) }) []byte {
	var buf bytes.Buffer
	w := &partWriter{w: newTestBufio(&buf)}
	b := core.Block{
		Suffix: []dataset.Item{2, 5, 9},
		Count:  4,
		Tails:  [][]dataset.Item{{1, 3}, {4}, {6, 7, 8}},
	}
	w.writeProjectedBlock(&b, 2)
	w.writeBucketedBlock(&b, 3, []int32{0})
	w.writeTuple([]dataset.Item{10, 20})
	deg := core.Block{Suffix: []dataset.Item{2}, Count: 2, Tails: [][]dataset.Item{{5, 6}, {1}}}
	w.writeProjectedBlock(&deg, 2)
	if err := w.w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzReadCDBRecords hammers the compressed-partition decoder with mutated
// byte streams: it must never panic or over-allocate, and whatever it
// accepts must survive a write/read round trip (the writer and reader agree
// on the format).
func FuzzReadCDBRecords(f *testing.F) {
	f.Add(spillSeed(f))
	f.Add([]byte{})
	f.Add([]byte{tagTuple, 2, 1, 1})
	f.Add([]byte{tagBlock, 1, 5, 2, 1, 1, 7})
	f.Add([]byte{7})                                      // bad tag
	f.Add([]byte{tagTuple, 3, 1})                         // truncated items
	f.Add([]byte{tagBlock, 2, 1, 1})                      // truncated block
	f.Add([]byte{tagBlock, 1, 1, 1, 0})                   // nTails > count guard boundary
	f.Add([]byte{tagTuple, 0xff, 0xff, 0xff, 0xff, 0x7f}) // huge item count
	f.Fuzz(func(t *testing.T, data []byte) {
		blocks, loose, err := readCDBRecords(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Accepted input: re-encode what was decoded and decode again — the
		// reader's view must be a fixed point of the format.
		var buf bytes.Buffer
		w := &partWriter{w: newTestBufio(&buf)}
		for i := range blocks {
			w.uvarint(tagBlock)
			w.items(blocks[i].Suffix)
			w.uvarint(uint64(blocks[i].Count))
			w.uvarint(uint64(len(blocks[i].Tails)))
			for _, tail := range blocks[i].Tails {
				w.items(tail)
			}
		}
		for _, tuple := range loose {
			w.writeTuple(tuple)
		}
		if err := w.w.Flush(); err != nil {
			t.Fatal(err)
		}
		blocks2, loose2, err := readCDBRecords(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-read of re-encoded accepted input failed: %v", err)
		}
		if len(blocks2) != len(blocks) || len(loose2) != len(loose) {
			t.Fatalf("round trip changed shape: %d/%d blocks, %d/%d loose",
				len(blocks), len(blocks2), len(loose), len(loose2))
		}
	})
}
