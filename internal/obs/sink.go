package obs

import (
	"bufio"
	"encoding/json"
	"io"
	"os"
	"strconv"
	"strings"
)

// A Sink consumes the per-round stat records of a run. Implementations
// buffer internally and flush on a record period (so an interrupted soak
// run loses at most FlushEvery rounds) and on Close.
type Sink interface {
	Write(r RoundStats) error
	Close() error
}

// DefaultFlushEvery is the record period between forced flushes when the
// caller passes 0.
const DefaultFlushEvery = 64

// JSONLSink streams one JSON object per round, newline-delimited — the
// format the soak harness writes and EXPERIMENTS.md documents.
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

// WriteFlight implements FlightWriter: one flight-recorder snapshot
// record, `"type":"flight"`, in the same stream.
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

// CSVSink streams the records as comma-separated values with a header
// row, for spreadsheet and plotting pipelines.
type CSVSink struct {
	w     *bufio.Writer
	c     io.Closer
	every int
	n     int
	row   []byte
}

var csvHeader = []string{
	"round", "tick", "nodes", "edges", "groups", "singletons", "mean_size",
	"pi_a", "pi_s", "pi_m", "converged", "safe_groups", "safety_rate",
	"pi_t", "pi_c", "pi_c_violations", "membership_changes", "nee",
	"msgs", "delivs", "radio_drops",
}

// NewCSVSink wraps w; flushEvery ≤ 0 selects DefaultFlushEvery. If w is
// also an io.Closer, Close closes it.
func NewCSVSink(w io.Writer, flushEvery int) (*CSVSink, error) {
	if flushEvery <= 0 {
		flushEvery = DefaultFlushEvery
	}
	s := &CSVSink{w: bufio.NewWriter(w), every: flushEvery}
	if c, ok := w.(io.Closer); ok {
		s.c = c
	}
	for i, h := range csvHeader {
		if i > 0 {
			s.row = append(s.row, ',')
		}
		s.row = append(s.row, h...)
	}
	s.row = append(s.row, '\n')
	if _, err := s.w.Write(s.row); err != nil {
		return nil, err
	}
	return s, nil
}

// CreateCSVSink creates (truncates) path and streams records to it.
func CreateCSVSink(path string, flushEvery int) (*CSVSink, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	s, err := NewCSVSink(f, flushEvery)
	if err != nil {
		f.Close()
		return nil, err
	}
	return s, nil
}

func b2s(b bool) string {
	if b {
		return "1"
	}
	return "0"
}

// Write implements Sink.
func (s *CSVSink) Write(r RoundStats) error {
	row := s.row[:0]
	row = strconv.AppendInt(row, int64(r.Round), 10)
	for _, v := range []int{r.Tick, r.Nodes, r.Edges, r.Groups, r.Singletons} {
		row = append(row, ',')
		row = strconv.AppendInt(row, int64(v), 10)
	}
	row = append(row, ',')
	row = strconv.AppendFloat(row, r.MeanSize, 'g', -1, 64)
	for _, v := range []bool{r.Agreement, r.Safety, r.Maximality, r.Converged} {
		row = append(row, ',')
		row = append(row, b2s(v)...)
	}
	row = append(row, ',')
	row = strconv.AppendInt(row, int64(r.SafeGroups), 10)
	row = append(row, ',')
	row = strconv.AppendFloat(row, r.SafetyRate, 'g', -1, 64)
	for _, v := range []bool{r.Topological, r.Continuity} {
		row = append(row, ',')
		row = append(row, b2s(v)...)
	}
	for _, v := range []int{r.ContinuityViolations, r.MembershipChanges, r.ExternalEdges, r.MessagesSent, r.Deliveries, r.RadioDrops} {
		row = append(row, ',')
		row = strconv.AppendInt(row, int64(v), 10)
	}
	row = append(row, '\n')
	s.row = row
	if _, err := s.w.Write(row); err != nil {
		return err
	}
	s.n++
	if s.n%s.every == 0 {
		return s.w.Flush()
	}
	return nil
}

// Close implements Sink.
func (s *CSVSink) Close() error {
	err := s.w.Flush()
	if s.c != nil {
		if cerr := s.c.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// OpenSink creates a sink for path, choosing the format by extension:
// ".csv" selects CSV, everything else JSONL.
func OpenSink(path string, flushEvery int) (Sink, error) {
	if strings.HasSuffix(path, ".csv") {
		return CreateCSVSink(path, flushEvery)
	}
	return CreateJSONLSink(path, flushEvery)
}

// Every wraps a sink so only one record in k is forwarded (record
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
// also thin them. A wrapped sink that cannot carry flight records drops
// them silently.
func (d *decimate) WriteFlight(fr FlightRecord) error {
	if fw, ok := d.s.(FlightWriter); ok {
		return fw.WriteFlight(fr)
	}
	return nil
}

func (d *decimate) Close() error { return d.s.Close() }
