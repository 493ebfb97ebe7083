package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// span is one timed call at a layer boundary. Times are nanoseconds since
// the recorder's epoch; parent indexes the enclosing span in the same
// recorder (-1 for a root).
type span struct {
	name   string
	req    int64
	parent int32
	start  int64
	end    int64
}

func (s span) dur() int64 { return s.end - s.start }

// recorder keeps the spans of one goroutine in memory. Nesting follows call
// order: begin pushes, end pops.
type recorder struct {
	epoch time.Time
	req   int64
	spans []span
	stack []int32

	// Outcomes of the recycled runs replayed since the window opened:
	// patterns mined, compression ratio and group count per run.
	patterns int64
	ratios   []float64
	groups   []float64
}

func newRecorder(epoch time.Time, capacity int) *recorder {
	return &recorder{epoch: epoch, spans: make([]span, 0, capacity)}
}

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// begin opens a span under the innermost open one and returns its index.
func (r *recorder) begin(name string) int32 {
	parent := int32(-1)
	if n := len(r.stack); n > 0 {
		parent = r.stack[n-1]
	}
	i := int32(len(r.spans))
	r.spans = append(r.spans, span{name: name, req: r.req, parent: parent, start: r.now()})
	r.stack = append(r.stack, i)
	return i
}

// end closes the innermost open span.
func (r *recorder) end() {
	n := len(r.stack)
	i := r.stack[n-1]
	r.stack = r.stack[:n-1]
	r.spans[i].end = r.now()
}

// add records an already-timed span (start and end in recorder time).
func (r *recorder) add(name string, start, end int64) {
	parent := int32(-1)
	if n := len(r.stack); n > 0 {
		parent = r.stack[n-1]
	}
	r.spans = append(r.spans, span{name: name, req: r.req, parent: parent, start: start, end: end})
}

// selfTimes returns, per span, its duration minus the part of its interval
// that its direct children cover (overlapping children count once).
func selfTimes(spans []span) []int64 {
	children := make([][]int32, len(spans))
	for i, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], int32(i))
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.dur() - covered(s, spans, children[i])
	}
	return self
}

// covered is the length of the union of the child intervals, clipped to p.
func covered(p span, spans []span, kids []int32) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := spans[k].start, spans[k].end
		if lo < p.start {
			lo = p.start
		}
		if hi > p.end {
			hi = p.end
		}
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total int64
	curLo, curHi := int64(0), int64(-1)
	for _, x := range iv {
		if x[0] > curHi {
			if curHi > curLo {
				total += curHi - curLo
			}
			curLo, curHi = x[0], x[1]
		} else if x[1] > curHi {
			curHi = x[1]
		}
	}
	if curHi > curLo {
		total += curHi - curLo
	}
	return total
}

// layerOf returns the layer (package) a span name belongs to: the text
// before the first dot.
func layerOf(name string) string {
	for i := 0; i < len(name); i++ {
		if name[i] == '.' {
			return name[:i]
		}
	}
	return name
}

// writeSpans writes spans as JSON lines (one object per span) to path.
func writeSpans(path string, recs []*recorder) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for g, r := range recs {
		for i, s := range r.spans {
			rec := struct {
				G      int    `json:"g"`
				I      int    `json:"i"`
				Name   string `json:"name"`
				Req    int64  `json:"req"`
				Parent int32  `json:"parent"`
				Start  int64  `json:"start_ns"`
				End    int64  `json:"end_ns"`
			}{g, i, s.name, s.req, s.parent, s.start, s.end}
			if err := enc.Encode(rec); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
