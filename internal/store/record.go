package store

import (
	"encoding/binary"
	"fmt"
	"math"
	"strconv"
	"time"

	"gogreen/internal/dataset"
	"gogreen/internal/mining"
	"gogreen/internal/patternio"
)

// A record is framed on disk as u32 payload length, u32 CRC-32C, payload.
// The payload is a kind byte, the database id, kind-specific header fields
// (uvarints, length-prefixed strings, a little-endian float64) and, for
// PutDB, PutSet and PutRung, a body: the database in numeric-id basket
// format, or the patternio text of a pattern set.
//
// Each kind's frame is built by exactly one function below, with its
// length and checksum left for Store.writeLocked to fill in, and decoded
// only by Store.applyLocked, the fold that both replay and runtime writes go
// through. Frames are position-independent, so compaction copies them byte
// for byte.

// frameHeader is the length and checksum before each payload.
const frameHeader = 8

// header starts a frame: room for the frame header, the kind and the id.
func header(kind byte, id string) []byte {
	b := make([]byte, frameHeader, frameHeader+64+len(id))
	return appendString(append(b, kind), id)
}

func appendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

func putDBRecord(id, tenant string, db *dataset.DB) []byte {
	st := db.Stats()
	b := appendString(header(kindPutDB, id), tenant)
	b = binary.AppendUvarint(b, uint64(st.NumTx))
	b = binary.AppendUvarint(b, uint64(st.NumItems))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(st.AvgLen))
	for _, t := range db.All() {
		for j, it := range t {
			if j > 0 {
				b = append(b, ' ')
			}
			b = strconv.AppendInt(b, int64(it), 10)
		}
		b = append(b, '\n')
	}
	return b
}

func deleteDBRecord(id string) []byte { return header(kindDeleteDB, id) }

func putSetRecord(id, name string, minCount int, saved time.Time, fp []mining.Pattern) ([]byte, error) {
	b := appendString(header(kindPutSet, id), name)
	b = binary.AppendUvarint(b, uint64(minCount))
	b = binary.AppendUvarint(b, uint64(saved.UnixNano()))
	return appendPatterns(b, minCount, fp)
}

func putRungRecord(id string, minCount int, fp []mining.Pattern) ([]byte, error) {
	b := binary.AppendUvarint(header(kindPutRung, id), uint64(minCount))
	return appendPatterns(b, minCount, fp)
}

func dropRungsRecord(id string) []byte { return header(kindDropRungs, id) }

// appendPatterns ends a PutSet or PutRung payload: the pattern and item
// counts the index keeps, then the patternio body.
func appendPatterns(b []byte, minCount int, fp []mining.Pattern) ([]byte, error) {
	var items int
	for i := range fp {
		items += len(fp[i].Items)
	}
	b = binary.AppendUvarint(b, uint64(len(fp)))
	b = binary.AppendUvarint(b, uint64(items))
	b, err := patternio.Append(b, patternio.Set{Patterns: fp, MinSupport: minCount})
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return b, nil
}

// decoder walks a record payload's header fields; err is sticky and pos
// marks where the body (if any) begins once the header is consumed.
type decoder struct {
	buf []byte
	pos int
	err error
}

func (d *decoder) fail() {
	if d.err == nil {
		d.err = ErrCorrupt
	}
}

func (d *decoder) byte() byte {
	if d.err != nil || d.pos >= len(d.buf) {
		d.fail()
		return 0
	}
	b := d.buf[d.pos]
	d.pos++
	return b
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.pos:])
	if n <= 0 {
		d.fail()
		return 0
	}
	d.pos += n
	return v
}

func (d *decoder) string() string {
	n := d.uvarint()
	if d.err != nil {
		return ""
	}
	if n > uint64(len(d.buf)-d.pos) {
		d.fail()
		return ""
	}
	s := string(d.buf[d.pos : d.pos+int(n)])
	d.pos += int(n)
	return s
}

func (d *decoder) float() float64 {
	if d.err != nil {
		return 0
	}
	if d.pos+8 > len(d.buf) {
		d.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(d.buf[d.pos:])
	d.pos += 8
	return math.Float64frombits(v)
}
