package dataset

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
)

// Basket format: one transaction per line, items separated by whitespace.
// Items may be arbitrary tokens (interned through a Dict) or, with
// ReadBasketIDs, decimal item ids. Blank lines and lines starting with '#'
// are skipped. This is the de-facto interchange format of the FIMI frequent
// itemset mining repository, which hosts the paper's Connect-4 and Pumsb
// datasets.

// maxLine bounds one basket line; longer lines fail with bufio.ErrTooLong.
const maxLine = 1 << 22

// ReadBasket reads named-token basket data, interning tokens in a fresh Dict.
func ReadBasket(r io.Reader) (*DB, error) {
	d := NewDict()
	var (
		tx   [][]Item
		toks [][]byte
	)
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, maxLine)
	line := 0
	for sc.Scan() {
		line++
		if toks = fields(toks[:0], sc.Bytes()); len(toks) == 0 {
			continue
		}
		t := make([]Item, 0, len(toks))
		for _, tok := range toks {
			t = append(t, d.Intern(string(tok)))
		}
		tx = append(tx, canonicalize(t))
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("basket read: line %d: %w", line, err)
	}
	return withDict(tx, d), nil
}

// ReadBasketIDs reads basket data whose tokens are decimal item ids. No
// dictionary is attached. A malformed token is an error. It parses in one
// pass with no per-line allocation: each row is canonicalized in place in
// one growing item buffer, and the rows are finally cut from one exact-size
// copy of it.
func ReadBasketIDs(r io.Reader) (*DB, error) {
	var (
		flat []Item // every row's items, each row canonical
		ends []int  // ends[i] is the end of row i in flat
		toks [][]byte
	)
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, maxLine)
	line := 0
	for sc.Scan() {
		line++
		if toks = fields(toks[:0], sc.Bytes()); len(toks) == 0 {
			continue
		}
		start := len(flat)
		for _, tok := range toks {
			v, ok := parseID(tok)
			if !ok {
				return nil, fmt.Errorf("basket read: line %d: bad item id %q", line, tok)
			}
			flat = append(flat, v)
		}
		flat = flat[:start+len(canonicalize(flat[start:]))]
		ends = append(ends, len(flat))
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("basket read: line %d: %w", line, err)
	}
	items := append(make([]Item, 0, len(flat)), flat...)
	tx := make([][]Item, len(ends))
	start := 0
	for i, end := range ends {
		tx[i] = items[start:end:end]
		start = end
	}
	return withDict(tx, nil), nil
}

// parseID parses a decimal item id: up to nine plain digits directly,
// anything else (signs, longer numbers, junk) through strconv.ParseInt, so
// every token is accepted or refused exactly as ParseInt decides.
func parseID(tok []byte) (Item, bool) {
	v := 0
	for i, c := range tok {
		if c < '0' || c > '9' || i == 9 {
			n, err := strconv.ParseInt(string(tok), 10, 32)
			return Item(n), err == nil && n >= 0
		}
		v = v*10 + int(c-'0')
	}
	return Item(v), true
}

// ReadBasketFile reads a named-token basket file.
func ReadBasketFile(path string) (*DB, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	db, err := ReadBasket(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return db, nil
}

// ReadBasketIDsFile reads a numeric-id basket file.
func ReadBasketIDsFile(path string) (*DB, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	db, err := ReadBasketIDs(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return db, nil
}

// WriteBasket writes the database in basket format. When the database has a
// dictionary, names are written; otherwise decimal ids.
func WriteBasket(w io.Writer, db *DB) error {
	bw := bufio.NewWriter(w)
	for _, t := range db.All() {
		for j, it := range t {
			if j > 0 {
				if err := bw.WriteByte(' '); err != nil {
					return err
				}
			}
			var tok string
			if db.Dict() != nil {
				tok = db.Dict().Name(it)
			} else {
				tok = strconv.Itoa(int(it))
			}
			if _, err := bw.WriteString(tok); err != nil {
				return err
			}
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteBasketFile writes the database to path in basket format.
func WriteBasketFile(path string, db *DB) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteBasket(f, db); err != nil {
		f.Close()
		return fmt.Errorf("%s: %w", path, err)
	}
	return f.Close()
}

// fields appends the tokens of a basket line (separated by spaces, tabs and
// carriage returns) to dst, returning none for blank and comment lines. The
// tokens alias line.
func fields(dst [][]byte, line []byte) [][]byte {
	start := -1
	for i := 0; i <= len(line); i++ {
		if i < len(line) && line[i] != ' ' && line[i] != '\t' && line[i] != '\r' {
			if start < 0 {
				start = i
			}
			continue
		}
		if start >= 0 {
			dst = append(dst, line[start:i])
			start = -1
		}
	}
	if len(dst) > 0 && dst[0][0] == '#' {
		return dst[:0]
	}
	return dst
}
