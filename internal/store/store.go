// Package store is the disk-backed pattern store: it makes the service's
// three kinds of mined-knowledge state — uploaded databases, saved pattern
// sets, and installed lattice rungs — survive process restarts. The paper's
// premise is that mined pattern sets are assets worth keeping and reusing
// across requests; persisting them extends the same recycling economics
// across process lifetimes (and, with cold-tenant spill, beyond what fits in
// memory).
//
// # On-disk layout
//
// A store owns one directory:
//
//	MANIFEST          which segments are live, in replay order
//	seg-00000001.log  append-only record log (sealed)
//	seg-00000002.log  append-only record log (active — appends go here)
//
// Every mutation appends one checksummed record to the active segment and
// fsyncs before the caller acknowledges, so an acknowledged write survives a
// crash at any instant. Records are never rewritten in place; logically
// replaced or deleted state becomes garbage that the background snapshot
// (Compact, or the StartSnapshots ticker) rewrites away: compaction copies
// the live record frames byte for byte into a fresh segment, atomically
// swaps the manifest, and deletes the old segments.
//
// # Recovery
//
// Open replays the manifest's segments in order, rebuilding the in-memory
// index (which maps each database id to the file offsets of its latest
// records — patterns themselves stay on disk until loaded). A crash can tear
// the tail of the *last* (active) segment only; Open detects the torn tail
// by length/checksum and truncates it, recovering exactly the records whose
// fsync was acknowledged. A checksum failure anywhere before the tail is
// real corruption and fails Open with ErrCorrupt.
//
// The index locates whole record frames, so every load and every compaction
// copy checks the record's checksum: a record corrupted after it was
// written is refused with ErrCorrupt, never served or re-checksummed.
package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"

	"gogreen/internal/dataset"
	"gogreen/internal/mining"
	"gogreen/internal/patternio"
)

// ErrCorrupt reports a segment whose body (not its torn tail) fails
// validation: a bad magic, a record checksum mismatch before the final
// record, an undecodable payload, or a stored record that fails its checksum
// when it is loaded or compacted.
var ErrCorrupt = errors.New("store: corrupt segment")

// ErrClosed reports use of a closed store.
var ErrClosed = errors.New("store: closed")

// ErrNotFound reports a load of a database the store does not hold.
var ErrNotFound = errors.New("store: no such database")

// segMagic opens every segment file; the trailing byte versions the record
// format.
const segMagic = "GGSEG\x00\x00\x01"

// manifestMagic is the first line of the MANIFEST file.
const manifestMagic = "# gogreen store manifest v1"

// maxRecordBytes bounds one record's payload — a guard against reading a
// corrupt length as an allocation size.
const maxRecordBytes = 1 << 30

// DefaultMaxSegmentBytes is the rotation threshold for the active segment.
const DefaultMaxSegmentBytes = 64 << 20

// Record kinds. A putDB record resets the database's sets and rungs (the
// upload semantics of the service: replacing a database drops its derived
// state); dropRungs clears the lattice ladder only.
const (
	kindPutDB     = 1
	kindDeleteDB  = 2
	kindPutSet    = 3
	kindPutRung   = 4
	kindDropRungs = 5
)

// crcTable is Castagnoli, the polynomial with hardware support on amd64 and
// arm64.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// recordRef locates one whole record frame inside a segment file.
type recordRef struct {
	seg  int64 // segment sequence number
	off  int64 // frame offset within the file
	n    int   // frame length, frameHeader included
	head int   // payload header length; the body follows it
}

// setState is the index entry of one saved pattern set.
type setState struct {
	ref      recordRef
	minCount int
	patterns int
	items    int64
	saved    int64 // unix nanos
}

// rungState is the index entry of one installed lattice rung.
type rungState struct {
	ref      recordRef
	patterns int
	items    int64
}

// dbState is the index entry of one database: stub metadata resident in
// memory, pattern payloads on disk.
type dbState struct {
	tenant   string
	numTx    int
	numItems int
	avgLen   float64
	db       recordRef
	sets     map[string]*setState
	rungs    map[int]*rungState
}

// Store is a disk-backed pattern store over one directory. All methods are
// safe for concurrent use.
type Store struct {
	dir    string
	maxSeg int64

	mu        sync.Mutex
	closed    bool
	segs      []int64            // live segments in replay order; last is active
	files     map[int64]*os.File // open handles (reads via ReadAt, appends on active)
	sizes     map[int64]int64    // current byte size per live segment
	index     map[string]*dbState
	compacted int64 // compactions run (stats)
	failed    int64 // compactions that failed (stats)

	tick chan struct{} // non-nil while the snapshot ticker runs
	done chan struct{}
}

// Options configures Open.
type Options struct {
	// MaxSegmentBytes rotates the active segment past this size;
	// <= 0 means DefaultMaxSegmentBytes.
	MaxSegmentBytes int64
}

// Open opens (creating if needed) the store directory and recovers its
// state: the manifest is replayed segment by segment, a torn tail on the
// active segment is truncated, and segments the manifest does not list
// (orphans of a crashed rotation or compaction) are deleted.
func Open(dir string, opts Options) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{
		dir:    dir,
		maxSeg: opts.MaxSegmentBytes,
		files:  map[int64]*os.File{},
		sizes:  map[int64]int64{},
		index:  map[string]*dbState{},
	}
	if s.maxSeg <= 0 {
		s.maxSeg = DefaultMaxSegmentBytes
	}
	if err := s.recover(); err != nil {
		s.closeFiles()
		return nil, err
	}
	return s, nil
}

// segPath names a segment file.
func (s *Store) segPath(seq int64) string {
	return filepath.Join(s.dir, fmt.Sprintf("seg-%08d.log", seq))
}

// recover loads the manifest, replays the live segments, deletes orphans,
// and ensures an active segment exists; caller is Open (no lock needed yet).
func (s *Store) recover() error {
	segs, err := readManifest(filepath.Join(s.dir, "MANIFEST"))
	if err != nil {
		return err
	}
	s.segs = segs
	for i, seq := range s.segs {
		if err := s.replaySegment(seq, i == len(s.segs)-1); err != nil {
			return err
		}
	}
	// Orphans: segment files a crashed rotation/compaction left behind but
	// the manifest never adopted. They hold no acknowledged state.
	listed := map[int64]bool{}
	for _, seq := range s.segs {
		listed[seq] = true
	}
	names, err := filepath.Glob(filepath.Join(s.dir, "seg-*.log"))
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	for _, name := range names {
		var seq int64
		if _, err := fmt.Sscanf(filepath.Base(name), "seg-%d.log", &seq); err != nil {
			continue
		}
		if !listed[seq] {
			os.Remove(name)
		}
	}
	if len(s.segs) == 0 {
		if err := s.rotateLocked(); err != nil {
			return err
		}
	}
	return nil
}

// replaySegment loads one segment into the index. last marks the active
// segment, whose torn tail (if any) is truncated rather than rejected.
func (s *Store) replaySegment(seq int64, last bool) error {
	path := s.segPath(seq)
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	size, err := replayRecords(f, s.applyLocked, seq)
	if err != nil {
		if !errors.Is(err, errTornTail) {
			f.Close()
			return err
		}
		if !last {
			f.Close()
			return fmt.Errorf("%w: segment %d has a torn tail but is not the active segment", ErrCorrupt, seq)
		}
		// Crash mid-append: drop the unacknowledged tail.
		if err := f.Truncate(size); err != nil {
			f.Close()
			return fmt.Errorf("store: truncate torn tail: %w", err)
		}
		if size == 0 {
			// Even the magic header was torn — restore it so the segment
			// stays appendable.
			if _, err := f.Seek(0, io.SeekStart); err != nil {
				f.Close()
				return fmt.Errorf("store: %w", err)
			}
			if _, err := f.WriteString(segMagic); err != nil {
				f.Close()
				return fmt.Errorf("store: %w", err)
			}
			size = int64(len(segMagic))
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return fmt.Errorf("store: %w", err)
		}
	}
	if _, err := f.Seek(size, io.SeekStart); err != nil {
		f.Close()
		return fmt.Errorf("store: %w", err)
	}
	s.files[seq] = f
	s.sizes[seq] = size
	return nil
}

// errTornTail distinguishes an incomplete final record (a crash mid-append,
// recoverable by truncation) from body corruption.
var errTornTail = errors.New("store: torn tail")

// replayRecords streams every valid record of one segment into apply and
// returns the byte offset of the end of the last valid record. A record cut
// short, or failing its checksum as the last frame, yields errTornTail with
// the good prefix length; the caller decides by position whether a torn
// tail is allowed (only the active segment may have one). A crash tears only
// the last frame, so a checksum failure whose length field leads to a frame
// with a valid checksum is corruption: ErrCorrupt, naming segment and offset.
func replayRecords(f *os.File, apply func(ref recordRef, payload []byte) error, seq int64) (int64, error) {
	magic := make([]byte, len(segMagic))
	if _, err := io.ReadFull(f, magic); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return 0, errTornTail // zero-length or partial header: treat as empty
		}
		return 0, fmt.Errorf("store: %w", err)
	}
	if string(magic) != segMagic {
		return 0, fmt.Errorf("%w: bad segment magic", ErrCorrupt)
	}
	off := int64(len(segMagic))
	for {
		payload, ok, err := readFrame(f)
		switch {
		case err == io.EOF:
			return off, nil
		case err == errTornTail:
			return off, err
		case err != nil:
			return off, fmt.Errorf("store: %w", err)
		case !ok:
			if _, nextOK, _ := readFrame(f); nextOK {
				return off, fmt.Errorf("%w: record at segment %d offset %d fails its checksum before a valid record", ErrCorrupt, seq, off)
			}
			return off, errTornTail
		}
		if err := apply(recordRef{seg: seq, off: off, n: frameHeader + len(payload)}, payload); err != nil {
			return off, err
		}
		off += frameHeader + int64(len(payload))
	}
}

// readFrame reads the frame at r's offset and reports whether its payload
// matches its checksum. It returns io.EOF at a clean end and errTornTail for
// a frame cut short or with an impossible length.
func readFrame(r io.Reader) (payload []byte, ok bool, err error) {
	var hdr [frameHeader]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			return nil, false, errTornTail
		}
		return nil, false, err
	}
	n := binary.LittleEndian.Uint32(hdr[0:4])
	if n == 0 || n > maxRecordBytes {
		return nil, false, errTornTail
	}
	payload = make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return nil, false, errTornTail
		}
		return nil, false, err
	}
	return payload, crc32.Checksum(payload, crcTable) == binary.LittleEndian.Uint32(hdr[4:8]), nil
}

// applyLocked folds one record into the index. It is the only decoder of
// record headers: replay and runtime writes both go through it (Open holds
// no lock; runtime callers hold s.mu). ref locates the record's frame; the
// fold records where the payload header ends.
func (s *Store) applyLocked(ref recordRef, payload []byte) error {
	d := &decoder{buf: payload}
	kind := d.byte()
	id := d.string()
	db := s.index[id] // nil for a dropped database: its sets and rungs are dead records
	switch kind {
	case kindPutDB:
		nd := &dbState{sets: map[string]*setState{}, rungs: map[int]*rungState{}}
		nd.tenant = d.string()
		nd.numTx = int(d.uvarint())
		nd.numItems = int(d.uvarint())
		nd.avgLen = d.float()
		nd.db, nd.db.head = ref, d.pos
		if d.err == nil {
			s.index[id] = nd
		}
	case kindDeleteDB:
		if d.err == nil {
			delete(s.index, id)
		}
	case kindPutSet:
		name := d.string()
		set := &setState{}
		set.minCount = int(d.uvarint())
		set.saved = int64(d.uvarint())
		set.patterns = int(d.uvarint())
		set.items = int64(d.uvarint())
		set.ref, set.ref.head = ref, d.pos
		if db != nil && d.err == nil {
			db.sets[name] = set
		}
	case kindPutRung:
		minCount := int(d.uvarint())
		r := &rungState{}
		r.patterns = int(d.uvarint())
		r.items = int64(d.uvarint())
		r.ref, r.ref.head = ref, d.pos
		if db != nil && d.err == nil {
			db.rungs[minCount] = r
		}
	case kindDropRungs:
		if db != nil && d.err == nil {
			db.rungs = map[int]*rungState{}
		}
	default:
		return fmt.Errorf("%w: unknown record kind %d", ErrCorrupt, kind)
	}
	if d.err != nil {
		return fmt.Errorf("%w: bad record of kind %d", ErrCorrupt, kind)
	}
	return nil
}

// garbageLocked derives the dead bytes from the index: the record bytes of
// the live segments minus the frames the index references. Replaced and
// deleted records, tombstones and the records of dropped databases all
// count. Caller holds s.mu.
func (s *Store) garbageLocked() int64 {
	var n int64
	for _, size := range s.sizes {
		n += size - int64(len(segMagic))
	}
	for _, d := range s.index {
		n -= int64(d.db.n)
		for _, set := range d.sets {
			n -= int64(set.ref.n)
		}
		for _, r := range d.rungs {
			n -= int64(r.ref.n)
		}
	}
	return n
}

// readManifest parses the MANIFEST file into the live segment list; a
// missing file is an empty store.
func readManifest(path string) ([]int64, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	lines := bytes.Split(data, []byte("\n"))
	if len(lines) == 0 || string(lines[0]) != manifestMagic {
		return nil, fmt.Errorf("%w: bad manifest header", ErrCorrupt)
	}
	var segs []int64
	for _, line := range lines[1:] {
		text := string(bytes.TrimSpace(line))
		if text == "" {
			continue
		}
		seq, err := strconv.ParseInt(text, 10, 64)
		if err != nil || seq < 1 {
			return nil, fmt.Errorf("%w: bad manifest entry %q", ErrCorrupt, text)
		}
		segs = append(segs, seq)
	}
	return segs, nil
}

// writeManifestLocked atomically replaces the MANIFEST with the given
// segment list (temp file, fsync, rename, fsync directory).
func (s *Store) writeManifestLocked(segs []int64) error {
	var buf bytes.Buffer
	buf.WriteString(manifestMagic)
	buf.WriteByte('\n')
	for _, seq := range segs {
		fmt.Fprintf(&buf, "%d\n", seq)
	}
	tmp := filepath.Join(s.dir, "MANIFEST.tmp")
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if _, err := f.Write(buf.Bytes()); err != nil {
		f.Close()
		return fmt.Errorf("store: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("store: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(s.dir, "MANIFEST")); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return syncDir(s.dir)
}

// syncDir fsyncs a directory so renames and creations inside it are durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("store: sync dir: %w", err)
	}
	return nil
}

// rotateLocked seals the active segment (if any) and starts the next one,
// adopting it into the manifest before any record lands in it.
func (s *Store) rotateLocked() error {
	next := int64(1)
	if n := len(s.segs); n > 0 {
		next = s.segs[n-1] + 1
	}
	f, err := os.OpenFile(s.segPath(next), os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if _, err := f.WriteString(segMagic); err != nil {
		f.Close()
		return fmt.Errorf("store: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("store: %w", err)
	}
	segs := append(append([]int64{}, s.segs...), next)
	if err := s.writeManifestLocked(segs); err != nil {
		f.Close()
		os.Remove(s.segPath(next))
		return err
	}
	s.segs = segs
	s.files[next] = f
	s.sizes[next] = int64(len(segMagic))
	return nil
}

// writeLocked fills in the header of one record frame built by a record
// function, appends the frame to the active segment, fsyncs it, and folds
// it into the index through applyLocked, rotating first when the active
// segment is full.
func (s *Store) writeLocked(frame []byte) error {
	if s.closed {
		return ErrClosed
	}
	active := s.segs[len(s.segs)-1]
	if s.sizes[active] >= s.maxSeg {
		if err := s.rotateLocked(); err != nil {
			return err
		}
		active = s.segs[len(s.segs)-1]
	}
	f := s.files[active]
	payload := frame[frameHeader:]
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(payload, crcTable))
	off := s.sizes[active]
	if _, err := f.Write(frame); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	s.sizes[active] = off + int64(len(frame))
	return s.applyLocked(recordRef{seg: active, off: off, n: len(frame)}, payload)
}

// frameLocked reads one record frame back from its segment and checks it
// against its length and checksum; caller holds s.mu, so compaction cannot
// close the segment under the read.
func (s *Store) frameLocked(ref recordRef) ([]byte, error) {
	f := s.files[ref.seg]
	if f == nil {
		return nil, fmt.Errorf("store: segment %d is gone", ref.seg)
	}
	frame := make([]byte, ref.n)
	if _, err := f.ReadAt(frame, ref.off); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	payload := frame[frameHeader:]
	if int(binary.LittleEndian.Uint32(frame[0:4])) != len(payload) ||
		crc32.Checksum(payload, crcTable) != binary.LittleEndian.Uint32(frame[4:8]) {
		return nil, fmt.Errorf("%w: record at segment %d offset %d fails its checksum", ErrCorrupt, ref.seg, ref.off)
	}
	return frame, nil
}

// bodyLocked returns the checked body of the record at ref; caller holds
// s.mu.
func (s *Store) bodyLocked(ref recordRef) ([]byte, error) {
	frame, err := s.frameLocked(ref)
	if err != nil {
		return nil, err
	}
	return frame[frameHeader+ref.head:], nil
}

// PutDB makes an uploaded database durable, resetting its saved sets and
// rungs (upload semantics: replacing a database drops derived state). The
// call returns only after the record is fsync'd.
func (s *Store) PutDB(id, tenant string, db *dataset.DB) error {
	frame := putDBRecord(id, tenant, db)
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.writeLocked(frame)
}

// DeleteDB makes a database drop durable (tombstone record).
func (s *Store) DeleteDB(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.index[id]; !ok {
		return nil // nothing durable to drop
	}
	return s.writeLocked(deleteDBRecord(id))
}

// PutSet makes one saved pattern set durable under (db id, name).
func (s *Store) PutSet(dbID, name string, minCount int, saved time.Time, fp []mining.Pattern) error {
	frame, err := putSetRecord(dbID, name, minCount, saved, fp)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.index[dbID]; !ok {
		return fmt.Errorf("%w: %q", ErrNotFound, dbID)
	}
	return s.writeLocked(frame)
}

// PutRung makes one installed lattice rung durable under (db id, minCount).
func (s *Store) PutRung(dbID string, minCount int, fp []mining.Pattern) error {
	frame, err := putRungRecord(dbID, minCount, fp)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.index[dbID]; !ok {
		return fmt.Errorf("%w: %q", ErrNotFound, dbID)
	}
	return s.writeLocked(frame)
}

// DropRungs makes a lattice invalidation durable: the database's persisted
// ladder is cleared.
func (s *Store) DropRungs(dbID string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if db, ok := s.index[dbID]; !ok || len(db.rungs) == 0 {
		return nil
	}
	return s.writeLocked(dropRungsRecord(dbID))
}

// SetMeta describes one saved pattern set without loading its patterns.
type SetMeta struct {
	Name     string
	MinCount int
	Patterns int
	Items    int64 // total item cells across the set (cost-model input)
	Saved    time.Time
}

// DBMeta describes one stored database without loading its content — the
// boot-time stub the server registers before any rehydration.
type DBMeta struct {
	ID       string
	Tenant   string
	NumTx    int
	NumItems int
	AvgLen   float64
	Sets     []SetMeta
	Rungs    int
}

// List enumerates the stored databases (sorted by id) as stub metadata.
func (s *Store) List() []DBMeta {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]DBMeta, 0, len(s.index))
	for id, d := range s.index {
		m := DBMeta{ID: id, Tenant: d.tenant, NumTx: d.numTx,
			NumItems: d.numItems, AvgLen: d.avgLen, Rungs: len(d.rungs)}
		for name, set := range d.sets {
			m.Sets = append(m.Sets, SetMeta{Name: name, MinCount: set.minCount,
				Patterns: set.patterns, Items: set.items, Saved: time.Unix(0, set.saved)})
		}
		sort.Slice(m.Sets, func(i, j int) bool { return m.Sets[i].Name < m.Sets[j].Name })
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Set is one rehydrated saved pattern set.
type Set struct {
	Name     string
	MinCount int
	Saved    time.Time
	Patterns []mining.Pattern
}

// Rung is one rehydrated lattice rung.
type Rung struct {
	MinCount int
	Patterns []mining.Pattern
}

// readDB runs fn on id's index entry under s.mu. fn reads the record
// bodies it needs there, so a concurrent compaction cannot close their
// segments under the reads; parsing happens after the lock is released.
func (s *Store) readDB(id string, fn func(d *dbState) error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	d, ok := s.index[id]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	return fn(d)
}

// LoadDB rehydrates a stored database.
func (s *Store) LoadDB(id string) (*dataset.DB, error) {
	var body []byte
	if err := s.readDB(id, func(d *dbState) (err error) {
		if body, err = s.bodyLocked(d.db); err != nil {
			return fmt.Errorf("store: db %q: %w", id, err)
		}
		return nil
	}); err != nil {
		return nil, err
	}
	db, err := dataset.ReadBasketIDs(bytes.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("store: db %q: %w", id, err)
	}
	return db, nil
}

// LoadSets rehydrates every saved pattern set of a database.
func (s *Store) LoadSets(id string) ([]Set, error) {
	var out []Set
	var bodies [][]byte
	err := s.readDB(id, func(d *dbState) error {
		out = make([]Set, 0, len(d.sets))
		for name, set := range d.sets {
			out = append(out, Set{Name: name, MinCount: set.minCount, Saved: time.Unix(0, set.saved)})
		}
		sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
		for _, set := range out {
			body, err := s.bodyLocked(d.sets[set.Name].ref)
			if err != nil {
				return fmt.Errorf("store: set %q/%q: %w", id, set.Name, err)
			}
			bodies = append(bodies, body)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i := range out {
		if out[i].Patterns, err = parsePatterns(bodies[i]); err != nil {
			return nil, fmt.Errorf("store: set %q/%q: %w", id, out[i].Name, err)
		}
	}
	return out, nil
}

// LoadRungs rehydrates a database's persisted lattice ladder, ascending by
// threshold.
func (s *Store) LoadRungs(id string) ([]Rung, error) {
	var out []Rung
	var bodies [][]byte
	err := s.readDB(id, func(d *dbState) error {
		out = make([]Rung, 0, len(d.rungs))
		for minCount := range d.rungs {
			out = append(out, Rung{MinCount: minCount})
		}
		sort.Slice(out, func(i, j int) bool { return out[i].MinCount < out[j].MinCount })
		for _, r := range out {
			body, err := s.bodyLocked(d.rungs[r.MinCount].ref)
			if err != nil {
				return fmt.Errorf("store: rung %q@%d: %w", id, r.MinCount, err)
			}
			bodies = append(bodies, body)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i := range out {
		if out[i].Patterns, err = parsePatterns(bodies[i]); err != nil {
			return nil, fmt.Errorf("store: rung %q@%d: %w", id, out[i].MinCount, err)
		}
	}
	return out, nil
}

// parsePatterns parses one pattern-record body.
func parsePatterns(body []byte) ([]mining.Pattern, error) {
	set, err := patternio.Read(bytes.NewReader(body))
	return set.Patterns, err
}

// Compact copies the live record frames into a fresh segment and drops the
// old ones — the snapshot step of the snapshot/compaction ticker. Frames are
// copied byte for byte after their checksum is checked against the copied
// bytes, so a corrupted record fails the compaction with ErrCorrupt and the
// old segments stay live. The manifest swap is atomic; a crash at any point
// leaves either the old or the new segment list fully live.
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if err := s.compactLocked(); err != nil {
		s.failed++
		return err
	}
	s.compacted++
	return nil
}

func (s *Store) compactLocked() error {
	old := s.segs
	next := old[len(old)-1] + 1
	f, err := os.OpenFile(s.segPath(next), os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	abort := func(err error) error {
		f.Close()
		os.Remove(s.segPath(next))
		return err
	}
	if _, err := f.WriteString(segMagic); err != nil {
		return abort(fmt.Errorf("store: %w", err))
	}
	// Each live ref moves to its frame's offset in the compacted segment
	// once the manifest swap commits. A database's PutDB frame precedes its
	// sets and rungs, so replaying the copy rebuilds the same index.
	type move struct {
		ref *recordRef
		off int64
	}
	var moves []move
	off := int64(len(segMagic))
	copyFrame := func(ref *recordRef) error {
		frame, err := s.frameLocked(*ref)
		if err != nil {
			return err
		}
		if _, err := f.Write(frame); err != nil {
			return fmt.Errorf("store: %w", err)
		}
		moves = append(moves, move{ref, off})
		off += int64(len(frame))
		return nil
	}
	ids := make([]string, 0, len(s.index))
	for id := range s.index {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		d := s.index[id]
		if err := copyFrame(&d.db); err != nil {
			return abort(err)
		}
		for _, set := range d.sets {
			if err := copyFrame(&set.ref); err != nil {
				return abort(err)
			}
		}
		for _, r := range d.rungs {
			if err := copyFrame(&r.ref); err != nil {
				return abort(err)
			}
		}
	}
	if err := f.Sync(); err != nil {
		return abort(fmt.Errorf("store: %w", err))
	}

	// Fresh active segment after the snapshot, then the atomic manifest swap
	// makes [snapshot, active] the live list.
	activeSeq := next + 1
	af, err := os.OpenFile(s.segPath(activeSeq), os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return abort(fmt.Errorf("store: %w", err))
	}
	abortBoth := func(err error) error {
		af.Close()
		os.Remove(s.segPath(activeSeq))
		return abort(err)
	}
	if _, err := af.WriteString(segMagic); err != nil {
		return abortBoth(fmt.Errorf("store: %w", err))
	}
	if err := af.Sync(); err != nil {
		return abortBoth(fmt.Errorf("store: %w", err))
	}
	if err := s.writeManifestLocked([]int64{next, activeSeq}); err != nil {
		return abortBoth(err)
	}

	// Swap in the new world and reclaim the old segments.
	for _, seq := range old {
		s.files[seq].Close()
		delete(s.files, seq)
		delete(s.sizes, seq)
		os.Remove(s.segPath(seq))
	}
	for _, m := range moves {
		m.ref.seg, m.ref.off = next, m.off
	}
	s.segs = []int64{next, activeSeq}
	s.files[next], s.sizes[next] = f, off
	s.files[activeSeq], s.sizes[activeSeq] = af, int64(len(segMagic))
	return nil
}

// StartSnapshots compacts the store every interval until Close. Compaction
// is skipped while the log holds no garbage, so an idle store does not churn
// its segment files.
func (s *Store) StartSnapshots(interval time.Duration) {
	if interval <= 0 {
		return
	}
	s.mu.Lock()
	if s.tick != nil || s.closed {
		s.mu.Unlock()
		return
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	s.tick, s.done = stop, done
	s.mu.Unlock()
	go func() {
		defer close(done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				s.mu.Lock()
				dirty := s.garbageLocked() > 0
				s.mu.Unlock()
				if dirty {
					s.Compact() // failures are counted in Stats; next tick retries
				}
			}
		}
	}()
}

// Stats reports the store's occupancy for gauges and operator surfaces.
type Stats struct {
	Segments    int   `json:"segments"`
	DiskBytes   int64 `json:"disk_bytes"`
	Databases   int   `json:"databases"`
	Garbage     int64 `json:"garbage_bytes"`
	Compactions int64 `json:"compactions"`
	// CompactFailures counts compactions that failed, e.g. on a corrupt
	// record; the old segments stay live and garbage keeps growing.
	CompactFailures int64 `json:"compact_failures"`
}

// Stats returns current occupancy.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{Segments: len(s.segs), Databases: len(s.index),
		Garbage: s.garbageLocked(), Compactions: s.compacted, CompactFailures: s.failed}
	for _, n := range s.sizes {
		st.DiskBytes += n
	}
	return st
}

// Close stops the snapshot ticker and closes every segment file. Appends
// after Close return ErrClosed.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	stop, done := s.tick, s.done
	s.tick, s.done = nil, nil
	s.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closeFiles()
	return nil
}

func (s *Store) closeFiles() {
	for seq, f := range s.files {
		f.Close()
		delete(s.files, seq)
	}
}
