package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one round
// share Round; Parent is the ID (within the same Shard) of the span that
// caused this one, -1 for a root. Times are nanoseconds since the trace
// origin.
type span struct {
	ID     int    `json:"id"`
	Shard  int    `json:"shard"`
	Round  int    `json:"round"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s *span) dur() int64 { return s.End - s.Start }

// tracer records the spans of one goroutine in memory; nothing is written
// until the run is over.
type tracer struct {
	origin time.Time
	shard  int
	spans  []span
}

func newTracer(origin time.Time, shard, capacity int) *tracer {
	return &tracer{origin: origin, shard: shard, spans: make([]span, 0, capacity)}
}

func (t *tracer) begin(name string, parent, round int) int {
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Shard: t.shard, Round: round, Parent: parent, Name: name,
		Start: time.Since(t.origin).Nanoseconds()})
	return id
}

func (t *tracer) end(id int) { t.spans[id].End = time.Since(t.origin).Nanoseconds() }

// selfTimes returns, per span, its duration minus the part of that
// interval its child spans cover (children are clipped to the parent and
// overlapping children counted once). spans must be one tracer's, indexed
// by ID.
func selfTimes(spans []span) []int64 {
	children := make([][]int, len(spans))
	for i := range spans {
		if p := spans[i].Parent; p >= 0 {
			children[p] = append(children[p], i)
		}
	}
	self := make([]int64, len(spans))
	for i := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, edge := int64(0), spans[i].Start
		for _, k := range kids {
			from := max(spans[k].Start, edge)
			to := min(spans[k].End, spans[i].End)
			if to > from {
				covered += to - from
				edge = to
			}
		}
		self[i] = spans[i].dur() - covered
	}
	return self
}

// spanTotals sums span durations by name over the rounds after warm.
func spanTotals(spans []span, warm int) map[string]int64 {
	tot := map[string]int64{}
	for i := range spans {
		if spans[i].Round > warm {
			tot[spans[i].Name] += spans[i].dur()
		}
	}
	return tot
}

// selfTotal sums the self time of the named spans over the rounds after
// warm.
func selfTotal(spans []span, warm int, names ...string) int64 {
	self := selfTimes(spans)
	var tot int64
	for i := range spans {
		if spans[i].Round <= warm {
			continue
		}
		for _, n := range names {
			if spans[i].Name == n {
				tot += self[i]
			}
		}
	}
	return tot
}

// roundDurations lists the durations (ms) of the round spans after warm.
func roundDurations(spans []span, warm int) []float64 {
	var out []float64
	for i := range spans {
		if spans[i].Name == "round" && spans[i].Round > warm {
			out = append(out, float64(spans[i].dur())/1e6)
		}
	}
	return out
}

// writeTrace writes one header record and then one record per span.
func writeTrace(path string, header any, tracers []*tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	err = enc.Encode(header)
	for _, t := range tracers {
		for i := range t.spans {
			if err == nil {
				err = enc.Encode(&t.spans[i])
			}
		}
	}
	if ferr := bw.Flush(); err == nil {
		err = ferr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
