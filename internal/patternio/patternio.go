// Package patternio persists frequent-pattern sets between mining
// iterations. In the paper's setting, the patterns discovered by one user
// (or one iteration) are the recyclable input of the next; this package is
// the storage layer that makes that hand-off durable.
//
// The format is line-oriented text:
//
//	# gogreen patterns v1
//	# minsupport 123
//	1,7,19:456
//
// — one pattern per line as comma-separated item ids, a colon, and the
// absolute support. Header lines start with '#'; the minsupport header is
// optional metadata recording the threshold the set was mined at.
package patternio

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"gogreen/internal/dataset"
	"gogreen/internal/mining"
)

const magic = "# gogreen patterns v1"

// ErrBadFormat reports a malformed pattern file.
var ErrBadFormat = errors.New("patternio: bad format")

// Set is a persisted pattern set plus its metadata.
type Set struct {
	Patterns []mining.Pattern
	// MinSupport is the absolute threshold the set was mined at; 0 when
	// unknown.
	MinSupport int
}

// Append appends the serialized set to dst. It is the only pattern
// encoder: Write writes its bytes, and the durable store frames them into
// segment records, so an exported set and a persisted one are
// byte-identical.
func Append(dst []byte, s Set) ([]byte, error) {
	dst = append(dst, magic+"\n"...)
	if s.MinSupport > 0 {
		dst = append(dst, "# minsupport "...)
		dst = strconv.AppendInt(dst, int64(s.MinSupport), 10)
		dst = append(dst, '\n')
	}
	for _, p := range s.Patterns {
		if len(p.Items) == 0 {
			return dst, fmt.Errorf("%w: empty pattern", ErrBadFormat)
		}
		for i, it := range p.Items {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = strconv.AppendInt(dst, int64(it), 10)
		}
		dst = append(dst, ':')
		dst = strconv.AppendInt(dst, int64(p.Support), 10)
		dst = append(dst, '\n')
	}
	return dst, nil
}

// Write serializes the set.
func Write(w io.Writer, s Set) error {
	b, err := Append(nil, s)
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// Read parses a pattern set, validating the header, item ids and supports.
func Read(r io.Reader) (Set, error) {
	var s Set
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return s, err
		}
		return s, fmt.Errorf("%w: empty file", ErrBadFormat)
	}
	if strings.TrimRight(sc.Text(), "\r") != magic {
		return s, fmt.Errorf("%w: missing %q header", ErrBadFormat, magic)
	}
	line := 1
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		if strings.HasPrefix(text, "#") {
			if rest, ok := strings.CutPrefix(text, "# minsupport "); ok {
				v, err := parseCanonical(strings.TrimSpace(rest))
				if err != nil || v < 1 {
					return s, fmt.Errorf("%w: line %d: bad minsupport", ErrBadFormat, line)
				}
				s.MinSupport = v
			}
			continue
		}
		itemsStr, supStr, ok := strings.Cut(text, ":")
		if !ok {
			return s, fmt.Errorf("%w: line %d: missing support", ErrBadFormat, line)
		}
		sup, err := parseCanonical(supStr)
		if err != nil || sup < 1 {
			return s, fmt.Errorf("%w: line %d: bad support %q", ErrBadFormat, line, supStr)
		}
		var items []dataset.Item
		for _, tok := range strings.Split(itemsStr, ",") {
			v, err := parseCanonical(tok)
			if err != nil {
				return s, fmt.Errorf("%w: line %d: bad item %q", ErrBadFormat, line, tok)
			}
			items = append(items, dataset.Item(v))
		}
		canon := dataset.Canonical(items)
		if len(canon) != len(items) {
			return s, fmt.Errorf("%w: line %d: duplicate items", ErrBadFormat, line)
		}
		s.Patterns = append(s.Patterns, mining.Pattern{Items: canon, Support: sup})
	}
	if err := sc.Err(); err != nil {
		return s, err
	}
	return s, nil
}

// parseCanonical parses a non-negative integer in its canonical byte form:
// digits only. Signed tokens like "+3" or "-0" are rejected even though the
// strconv parsers accept them, because they would round-trip to a different
// byte representation than Write produces.
func parseCanonical(tok string) (int, error) {
	if tok == "" || tok[0] == '+' || tok[0] == '-' {
		return 0, fmt.Errorf("%w: signed or empty number %q", ErrBadFormat, tok)
	}
	v, err := strconv.ParseInt(tok, 10, 32)
	if err != nil {
		return 0, err
	}
	return int(v), nil
}

// WriteFile writes the set to path.
func WriteFile(path string, s Set) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := Write(f, s); err != nil {
		f.Close()
		return fmt.Errorf("%s: %w", path, err)
	}
	return f.Close()
}

// ReadFile reads a pattern set from path.
func ReadFile(path string) (Set, error) {
	f, err := os.Open(path)
	if err != nil {
		return Set{}, err
	}
	defer f.Close()
	s, err := Read(f)
	if err != nil {
		return Set{}, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}
