package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// span is one interval of the traced run. Spans of one op share its op
// id; parent is the index of the span that caused this one, -1 for an
// op's root span. Times are nanoseconds since the measured phase began.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// trace holds the spans of a traced run in memory until it ends.
type trace struct {
	spans []span
	kids  map[int][]int // parent id -> child ids, built lazily by children
}

func (t *trace) add(parent, op int, name string, start, end int64) int {
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: start, End: end})
	t.kids = nil
	return id
}

func (t *trace) children(id int) []int {
	if t.kids == nil {
		t.kids = map[int][]int{}
		for _, s := range t.spans {
			if s.Parent >= 0 {
				t.kids[s.Parent] = append(t.kids[s.Parent], s.ID)
			}
		}
	}
	return t.kids[id]
}

// covered is the length of the part of span id's interval that its
// child spans cover (overlapping children count once, and a child
// reaching outside the parent is clipped to it).
func (t *trace) covered(id int) int64 {
	p := t.spans[id]
	var iv [][2]int64
	for _, c := range t.children(id) {
		s, e := t.spans[c].Start, t.spans[c].End
		if s < p.Start {
			s = p.Start
		}
		if e > p.End {
			e = p.End
		}
		if e > s {
			iv = append(iv, [2]int64{s, e})
		}
	}
	return unionLen(iv)
}

// selfTime is a span's duration minus the part its children cover.
func (t *trace) selfTime(id int) int64 { return t.spans[id].dur() - t.covered(id) }

// unionLen is the total length of the union of the intervals.
func unionLen(iv [][2]int64) int64 {
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total, end int64
	first := true
	for _, x := range iv {
		switch {
		case first || x[0] > end:
			total += x[1] - x[0]
			end = x[1]
			first = false
		case x[1] > end:
			total += x[1] - end
			end = x[1]
		}
	}
	return total
}

// maxDumpSpans bounds the span file: a serve-mix run produces one span
// per request, and the file is a diagnostic, not a result.
const maxDumpSpans = 200000

// write dumps the spans as JSONL (one span per line) to path.
func (t *trace) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	n := len(t.spans)
	if n > maxDumpSpans {
		n = maxDumpSpans
	}
	for _, s := range t.spans[:n] {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
