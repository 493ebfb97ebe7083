package dataset_test

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"gogreen/internal/dataset"
)

// FuzzReadBasketIDs: arbitrary input never panics; ReadBasketIDs accepts
// exactly what the line-splitting reference reader accepts, with the same
// error and identical tuples; accepted input round-trips through
// WriteBasket.
func FuzzReadBasketIDs(f *testing.F) {
	f.Add("1 2 3\n4 5\n")
	f.Add("")
	f.Add("# comment\n\n7\n")
	f.Add("0\n0 0 0\n")
	f.Add("999999 1\n")
	f.Add("+5 -0 0007\t3\r\n")
	f.Add("2147483647 2147483648\n")
	f.Add("1 #2\n-1\n")
	f.Add("1234567890 99999999999\n")
	f.Fuzz(func(t *testing.T, input string) {
		db, err := dataset.ReadBasketIDs(strings.NewReader(input))
		want, wantErr := referenceReadBasketIDs(strings.NewReader(input))
		if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
			t.Fatalf("error %v, reference reader %v", err, wantErr)
		}
		if err != nil {
			return
		}
		if !slices.EqualFunc(db.All(), want, slices.Equal[[]dataset.Item]) {
			t.Fatalf("tuples %v, reference reader %v", db.All(), want)
		}
		var buf bytes.Buffer
		if err := dataset.WriteBasket(&buf, db); err != nil {
			t.Fatalf("write after successful read: %v", err)
		}
		back, err := dataset.ReadBasketIDs(&buf)
		if err != nil {
			t.Fatalf("re-read of own output: %v", err)
		}
		if !slices.EqualFunc(back.All(), db.All(), slices.Equal[[]dataset.Item]) {
			t.Fatalf("round trip changed the tuples: %v vs %v", back.All(), db.All())
		}
	})
}

// referenceReadBasketIDs is the straightforward basket reader the one-pass
// ReadBasketIDs must agree with: split each line into string fields, parse
// each with strconv.ParseInt, sort and de-duplicate the row.
func referenceReadBasketIDs(r io.Reader) ([][]dataset.Item, error) {
	tx := [][]dataset.Item{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	line := 0
	for sc.Scan() {
		line++
		row := splitFields(sc.Text())
		if len(row) == 0 || row[0][0] == '#' {
			continue
		}
		t := make([]dataset.Item, 0, len(row))
		for _, tok := range row {
			v, err := strconv.ParseInt(tok, 10, 32)
			if err != nil || v < 0 {
				return nil, fmt.Errorf("basket read: line %d: bad item id %q", line, tok)
			}
			t = append(t, dataset.Item(v))
		}
		sort.Slice(t, func(i, j int) bool { return t[i] < t[j] })
		w := 0
		for i, v := range t {
			if i == 0 || v != t[w-1] {
				t[w] = v
				w++
			}
		}
		tx = append(tx, t[:w])
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("basket read: line %d: %w", line, err)
	}
	return tx, nil
}

// splitFields splits a basket line into its space-, tab- and CR-separated
// tokens.
func splitFields(s string) (fields []string) {
	start := -1
	for i := 0; i <= len(s); i++ {
		if i < len(s) && s[i] != ' ' && s[i] != '\t' && s[i] != '\r' {
			if start < 0 {
				start = i
			}
			continue
		}
		if start >= 0 {
			fields = append(fields, s[start:i])
			start = -1
		}
	}
	return fields
}

// FuzzReadCSV: arbitrary CSV input never panics.
func FuzzReadCSV(f *testing.F) {
	f.Add("a,b\n1,2\n", true)
	f.Add("x,y\n", false)
	f.Add("\"q\"\"uote\",v\n", false)
	f.Fuzz(func(t *testing.T, input string, header bool) {
		db, err := dataset.ReadCSV(strings.NewReader(input), header, dataset.RelationalOptions{})
		if err == nil && db.Len() > 0 {
			_ = db.Stats()
		}
	})
}
