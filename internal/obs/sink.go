package obs

import (
	"bufio"
	"encoding/json"
	"io"
	"os"
)

// A Sink consumes the records of a run: the per-round stats and the
// periodic flight-recorder snapshots. Implementations buffer internally
// and flush on a record period (so an interrupted soak run loses at most
// FlushEvery records) and on Close.
type Sink interface {
	Write(r RoundStats) error
	WriteFlight(fr FlightRecord) error
	Close() error
}

// DefaultFlushEvery is the record period between forced flushes when the
// caller passes 0.
const DefaultFlushEvery = 64

// JSONLSink streams one JSON object per record, newline-delimited — the
// one format a run's records are written in.
type JSONLSink struct {
	w     *bufio.Writer
	c     io.Closer
	enc   *json.Encoder
	every int
	n     int
}

// NewJSONLSink wraps w; flushEvery ≤ 0 selects DefaultFlushEvery. If w
// is also an io.Closer, Close closes it.
func NewJSONLSink(w io.Writer, flushEvery int) *JSONLSink {
	if flushEvery <= 0 {
		flushEvery = DefaultFlushEvery
	}
	bw := bufio.NewWriter(w)
	s := &JSONLSink{w: bw, enc: json.NewEncoder(bw), every: flushEvery}
	if c, ok := w.(io.Closer); ok {
		s.c = c
	}
	return s
}

// CreateJSONLSink creates (truncates) path and streams records to it.
func CreateJSONLSink(path string, flushEvery int) (*JSONLSink, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return NewJSONLSink(f, flushEvery), nil
}

// encode streams one record of any type through the shared encoder and
// advances the shared flush counter: every record kind (stats, episodes,
// flight snapshots, wakes) interleaves in write order in one stream.
func (s *JSONLSink) encode(v any) error {
	if err := s.enc.Encode(v); err != nil {
		return err
	}
	s.n++
	if s.n%s.every == 0 {
		return s.w.Flush()
	}
	return nil
}

// Write implements Sink.
func (s *JSONLSink) Write(r RoundStats) error { return s.encode(r) }

// WriteEpisode streams one convergence-monitor episode record through
// the same encoder (JSONL is schemaless; episode records carry their own
// field names — see Episode). It shares the flush period with Write.
func (s *JSONLSink) WriteEpisode(ep Episode) error { return s.encode(ep) }

// WriteFlight implements Sink: one flight-recorder snapshot record,
// `"type":"flight"`, in the same stream.
func (s *JSONLSink) WriteFlight(fr FlightRecord) error { return s.encode(fr) }

// WriteWake streams one wake-attribution trace record, `"type":"wake"`.
func (s *JSONLSink) WriteWake(w WakeRecord) error { return s.encode(w) }

// Close implements Sink.
func (s *JSONLSink) Close() error {
	err := s.w.Flush()
	if s.c != nil {
		if cerr := s.c.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// Every wraps a sink so only one stats record in k is forwarded (record
// decimation for multi-hour soak runs); k ≤ 1 forwards everything.
func Every(k int, s Sink) Sink {
	if k <= 1 {
		return s
	}
	return &decimate{k: k, s: s}
}

type decimate struct {
	k, n int
	s    Sink
}

func (d *decimate) Write(r RoundStats) error {
	d.n++
	if (d.n-1)%d.k != 0 {
		return nil
	}
	return d.s.Write(r)
}

// WriteFlight forwards flight snapshots undecimated: they carry their own
// period (SoakConfig.FlightEvery), so thinning the stats stream must not
// also thin them.
func (d *decimate) WriteFlight(fr FlightRecord) error { return d.s.WriteFlight(fr) }

func (d *decimate) Close() error { return d.s.Close() }
