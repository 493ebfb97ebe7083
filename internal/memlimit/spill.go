package memlimit

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"

	"gogreen/internal/core"
	"gogreen/internal/dataset"
	"gogreen/internal/mining"
)

// Partition spill format: a sequence of varint-encoded records.
//
//	tuple record:  tag 0, item count, items
//	block record:  tag 1, suffix length, suffix items, member count,
//	               tail count, then per tail: length, items
//
// Items are written as deltas within a record (they are sorted), keeping
// files small. The format is internal to one run; no cross-version
// stability is promised.

const (
	tagTuple = 0
	tagBlock = 1
)

// ErrCorruptPartition reports a malformed spill file.
var ErrCorruptPartition = errors.New("memlimit: corrupt partition file")

type partWriter struct {
	f *os.File
	w *bufio.Writer
	// err is sticky: the first failed write poisons the writer, later
	// writes are dropped, and every record method reports it — so a
	// disk-full surfaces at the record that hit it, not at closeFlush
	// after a run of silently truncated records.
	err error
	buf [binary.MaxVarintLen64]byte
}

func newPartWriter(path string) (*partWriter, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("memlimit: %w", err)
	}
	// Small buffers: many partitions may be open at once and the buffers
	// must not blow the memory budget themselves.
	return &partWriter{f: f, w: bufio.NewWriterSize(f, 4096)}, nil
}

func (p *partWriter) uvarint(v uint64) {
	if p.err != nil {
		return
	}
	n := binary.PutUvarint(p.buf[:], v)
	if _, err := p.w.Write(p.buf[:n]); err != nil {
		p.err = fmt.Errorf("memlimit: spill write: %w", err)
	}
}

func (p *partWriter) items(items []dataset.Item) {
	p.uvarint(uint64(len(items)))
	prev := dataset.Item(0)
	for _, it := range items {
		p.uvarint(uint64(it - prev))
		prev = it
	}
}

// writeTuple appends one plain tuple record and reports the writer's
// sticky error.
func (p *partWriter) writeTuple(t []dataset.Item) error {
	p.uvarint(tagTuple)
	p.items(t)
	return p.err
}

// writeProjectedBlock streams the r-projection of one block where r is a
// pattern item (Definition 3.2 lifted to blocks: every member qualifies),
// without materializing intermediate slices. A block whose remaining pattern
// empties degrades into tuple records. Tail-item projections go through
// writeBucketedBlock instead.
func (p *partWriter) writeProjectedBlock(b *core.Block, r dataset.Item) error {
	newSuffix := mining.After(b.Suffix, r)
	if b.Count == 0 {
		return p.err
	}
	if len(newSuffix) == 0 {
		// Degenerate: members reduce to their tails.
		for _, t := range b.Tails {
			if nt := mining.After(t, r); len(nt) > 0 {
				p.writeTuple(nt)
			}
		}
		return p.err
	}

	// Pass 1: non-empty-tail count; pass 2: the block record.
	nTails := 0
	for _, t := range b.Tails {
		if len(mining.After(t, r)) > 0 {
			nTails++
		}
	}
	p.uvarint(tagBlock)
	p.items(newSuffix)
	p.uvarint(uint64(b.Count))
	p.uvarint(uint64(nTails))
	for _, t := range b.Tails {
		if nt := mining.After(t, r); len(nt) > 0 {
			p.items(nt)
		}
	}
	return p.err
}

// writeBucketedBlock streams the r-projection of a block whose qualifying
// members are already known (tail indexes in members; r is a tail item, not
// a pattern item). Mirrors writeProjectedBlock's degenerate handling.
func (p *partWriter) writeBucketedBlock(b *core.Block, r dataset.Item, members []int32) error {
	if len(members) == 0 {
		return p.err
	}
	newSuffix := mining.After(b.Suffix, r)
	if len(newSuffix) == 0 {
		for _, ti := range members {
			if nt := mining.After(b.Tails[ti], r); len(nt) > 0 {
				p.writeTuple(nt)
			}
		}
		return p.err
	}
	nTails := 0
	for _, ti := range members {
		if len(mining.After(b.Tails[ti], r)) > 0 {
			nTails++
		}
	}
	p.uvarint(tagBlock)
	p.items(newSuffix)
	p.uvarint(uint64(len(members)))
	p.uvarint(uint64(nTails))
	for _, ti := range members {
		if nt := mining.After(b.Tails[ti], r); len(nt) > 0 {
			p.items(nt)
		}
	}
	return p.err
}

func (p *partWriter) closeFlush() error {
	if p.err != nil {
		p.f.Close()
		return p.err
	}
	if err := p.w.Flush(); err != nil {
		p.f.Close()
		return fmt.Errorf("memlimit: flush: %w", err)
	}
	if err := p.f.Close(); err != nil {
		return fmt.Errorf("memlimit: close: %w", err)
	}
	return nil
}

// abortParts closes and deletes every partition of a failed spill pass and
// returns err — a failing disk must not leave half-written partitions (or
// open file handles) behind.
func abortParts(writers map[dataset.Item]*partWriter, paths map[dataset.Item]string, err error) error {
	for _, w := range writers {
		w.f.Close()
	}
	for _, p := range paths {
		os.Remove(p)
	}
	return err
}

type partReader struct {
	r io.ByteReader
}

// asByteReader adapts any reader for the varint decoder without double
// buffering the common *bufio.Reader case.
func asByteReader(r io.Reader) io.ByteReader {
	if br, ok := r.(io.ByteReader); ok {
		return br
	}
	return bufio.NewReader(r)
}

func (p *partReader) uvarint() (uint64, error) {
	return binary.ReadUvarint(p.r)
}

func (p *partReader) items() ([]dataset.Item, error) {
	n, err := p.uvarint()
	if err != nil {
		return nil, err
	}
	if n > 1<<24 {
		return nil, ErrCorruptPartition
	}
	out := make([]dataset.Item, n)
	prev := uint64(0)
	for i := range out {
		d, err := p.uvarint()
		if err != nil {
			return nil, errTruncated(err)
		}
		prev += d
		if prev >= 1<<31 { // must fit a positive int32 dataset.Item
			return nil, ErrCorruptPartition
		}
		out[i] = dataset.Item(prev)
	}
	return out, nil
}

func errTruncated(err error) error {
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return ErrCorruptPartition
	}
	return err
}

// readCDBPart loads a compressed partition.
func readCDBPart(path string) ([]core.Block, [][]dataset.Item, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, fmt.Errorf("memlimit: %w", err)
	}
	defer f.Close()
	return readCDBRecords(bufio.NewReaderSize(f, 1<<16))
}

// readCDBRecords decodes a compressed-partition record stream. Split from
// the path wrapper so the decoder can be fuzzed on raw bytes.
func readCDBRecords(r io.Reader) ([]core.Block, [][]dataset.Item, error) {
	p := &partReader{r: asByteReader(r)}
	var blocks []core.Block
	var loose [][]dataset.Item
	for {
		tag, err := p.uvarint()
		if err == io.EOF {
			return blocks, loose, nil
		}
		if err != nil {
			return nil, nil, errTruncated(err)
		}
		switch tag {
		case tagTuple:
			t, err := p.items()
			if err != nil {
				return nil, nil, err
			}
			loose = append(loose, t)
		case tagBlock:
			suffix, err := p.items()
			if err != nil {
				return nil, nil, err
			}
			count, err := p.uvarint()
			if err != nil {
				return nil, nil, errTruncated(err)
			}
			nTails, err := p.uvarint()
			if err != nil {
				return nil, nil, errTruncated(err)
			}
			if nTails > count || count > 1<<40 {
				return nil, nil, ErrCorruptPartition
			}
			b := core.Block{Suffix: suffix, Count: int(count)}
			for i := uint64(0); i < nTails; i++ {
				t, err := p.items()
				if err != nil {
					return nil, nil, err
				}
				b.Tails = append(b.Tails, t)
			}
			blocks = append(blocks, b)
		default:
			return nil, nil, ErrCorruptPartition
		}
	}
}
