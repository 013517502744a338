package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/introspect"
)

// recordType classifies one JSONL line: flight and wake records carry an
// explicit "type" discriminator; stats and episode records are identified
// by their field names (the documented stream contract).
func recordType(t *testing.T, line string) string {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal([]byte(line), &m); err != nil {
		t.Fatalf("bad JSONL line %q: %v", line, err)
	}
	if ty, ok := m["type"].(string); ok {
		return ty
	}
	if _, ok := m["episode"]; ok {
		return "episode"
	}
	if _, ok := m["round"]; ok {
		return "stats"
	}
	t.Fatalf("unclassifiable record %q", line)
	return ""
}

// TestJSONLSinkInterleavesRecordKinds streams stats, episodes, flight
// snapshots and wake traces through one JSONLSink and asserts the stream
// preserves write order across kinds, every record round-trips, and the
// close flush delivers a tail shorter than the flush period.
func TestJSONLSinkInterleavesRecordKinds(t *testing.T) {
	var buf bytes.Buffer
	s := NewJSONLSink(&buf, 64) // period far above the record count: everything rides the close flush

	want := []string{}
	write := func(kind string, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, kind)
	}
	for r := 1; r <= 5; r++ {
		write("stats", s.Write(RoundStats{Round: r, Tick: 2 * r}))
		if r == 2 {
			write("wake", s.WriteWake(NewWakeRecord(r, introspect.WakeRec{Node: 7, Cause: introspect.WakeInboxNew, Sender: 9})))
		}
		if r == 3 {
			write("episode", s.WriteEpisode(Episode{ID: 1, OpenedRound: r}))
		}
		if r%2 == 0 {
			write("flight", s.WriteFlight(FlightRecord{
				Type: "flight", Round: r,
				Counters: map[string]uint64{"ticks": uint64(2 * r)},
				PhaseNs:  map[string]int64{"compute": 1},
			}))
		}
	}
	if buf.Len() != 0 {
		t.Fatalf("sink flushed %d bytes before the period or Close", buf.Len())
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if len(lines) != len(want) {
		t.Fatalf("stream has %d records, wrote %d", len(lines), len(want))
	}
	for i, line := range lines {
		if got := recordType(t, line); got != want[i] {
			t.Errorf("record %d is %q, want %q (write order not preserved)", i, got, want[i])
		}
		if want[i] == "wake" && !strings.Contains(line, `"cause":"inbox_new"`) {
			t.Errorf("wake record %q does not name its cause inbox_new", line)
		}
	}
}

// TestDecimateForwardsFlightsUndecimated pins the Every(k) wrapper's
// contract: the stats stream is thinned to one record in k, while flight
// snapshots — which carry their own period — pass through untouched and
// still interleave at their write positions.
func TestDecimateForwardsFlightsUndecimated(t *testing.T) {
	var buf bytes.Buffer
	inner := NewJSONLSink(&buf, 1)
	s := Every(4, inner)
	for r := 1; r <= 12; r++ {
		if err := s.Write(RoundStats{Round: r}); err != nil {
			t.Fatal(err)
		}
		if r%3 == 0 {
			if err := s.WriteFlight(FlightRecord{Type: "flight", Round: r}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	stats, flights := 0, 0
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		switch recordType(t, sc.Text()) {
		case "stats":
			stats++
		case "flight":
			flights++
		}
	}
	if stats != 3 { // rounds 1, 5, 9
		t.Errorf("decimated stream carries %d stat records, want 3", stats)
	}
	if flights != 4 { // rounds 3, 6, 9, 12 — none dropped
		t.Errorf("decimated stream carries %d flight records, want all 4", flights)
	}
}

// TestSoakFlightStreamThroughDecimation runs a short soak with a
// decimated sink and FlightEvery armed, asserting the end-to-end stream:
// thinned stats, undecimated periodic flight snapshots plus the final
// one, and a final record whose counters match the run's result snapshot.
func TestSoakFlightStreamThroughDecimation(t *testing.T) {
	var buf bytes.Buffer
	sink := Every(5, NewJSONLSink(&buf, 1))
	res, err := RunSoak(SoakConfig{
		N: 60, Dmax: 3, Seed: 7, Workers: 2, MaxRounds: 40,
		JoinRate: 0.1, LeaveRate: 0.1,
		Sink: sink, FlightEvery: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}

	stats := 0
	var flights []FlightRecord
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		switch recordType(t, sc.Text()) {
		case "stats":
			stats++
		case "flight":
			var fr FlightRecord
			if err := json.Unmarshal(sc.Bytes(), &fr); err != nil {
				t.Fatal(err)
			}
			flights = append(flights, fr)
		}
	}
	if stats != 8 { // 40 rounds / 5
		t.Errorf("decimated stream carries %d stat records, want 8", stats)
	}
	if len(flights) != 5 { // rounds 10, 20, 30, 40 + final
		t.Fatalf("stream carries %d flight records, want 5", len(flights))
	}
	final := flights[len(flights)-1]
	if final.Round != res.Rounds {
		t.Errorf("final flight record at round %d, run ended at %d", final.Round, res.Rounds)
	}
	for name, v := range final.Counters {
		if res.Flight.Counters[name] != v {
			t.Errorf("final flight %s = %d, result snapshot = %d", name, v, res.Flight.Counters[name])
		}
	}
	if final.Counters["wakes_self_active"] == 0 {
		t.Error("flight snapshot has no self-active wakes over a churning run — counters not wired")
	}
}
