package obs

import (
	"errors"
	"strings"
	"testing"
)

// Error-injecting writers for the sink Close/flush contract (ISSUE 9):
// a failed flush of the buffered tail — the records written since the
// last periodic flush, exactly what a full disk eats — must surface out
// of Close so the harnesses (grpsoak, grpsim) can exit non-zero instead
// of reporting a clean run over a truncated stats file.

var errDiskFull = errors.New("write: no space left on device")

// chokeWriter accepts writes until budget bytes have passed, then fails
// every write. When closeErr is set, Close fails too. It counts closes
// so the tests can assert a failed flush still releases the file handle.
type chokeWriter struct {
	budget   int
	closeErr error
	writes   int
	closed   int
}

func (w *chokeWriter) Write(p []byte) (int, error) {
	w.writes++
	if w.budget < len(p) {
		return 0, errDiskFull
	}
	w.budget -= len(p)
	return len(p), nil
}

func (w *chokeWriter) Close() error {
	w.closed++
	return w.closeErr
}

func TestJSONLSinkCloseSurfacesFlushError(t *testing.T) {
	w := &chokeWriter{budget: 0}
	s := NewJSONLSink(w, 1000) // period above the record count: the tail rides the close flush
	for i := 0; i < 3; i++ {
		if err := s.Write(RoundStats{Round: i}); err != nil {
			t.Fatalf("buffered write %d errored early: %v", i, err)
		}
	}
	if err := s.Close(); !errors.Is(err, errDiskFull) {
		t.Fatalf("Close = %v, want the flush's disk-full error", err)
	}
	if w.closed != 1 {
		t.Fatalf("underlying writer closed %d times after the failed flush, want 1", w.closed)
	}
}

func TestJSONLSinkCloseSurfacesCloseError(t *testing.T) {
	closeErr := errors.New("close: I/O error")
	w := &chokeWriter{budget: 1 << 20, closeErr: closeErr}
	s := NewJSONLSink(w, 1000)
	if err := s.Write(RoundStats{Round: 1}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); !errors.Is(err, closeErr) {
		t.Fatalf("Close = %v, want the underlying close error", err)
	}
}

func TestJSONLSinkPeriodicFlushErrorIsSticky(t *testing.T) {
	w := &chokeWriter{budget: 0}
	s := NewJSONLSink(w, 1) // flush every record: the first Write hits the disk
	if err := s.Write(RoundStats{Round: 1}); !errors.Is(err, errDiskFull) {
		t.Fatalf("periodic-flush Write = %v, want disk-full", err)
	}
	// The error is sticky: both a later write and the final Close keep
	// reporting it, so a harness that only checks Close still fails.
	if err := s.Write(RoundStats{Round: 2}); !errors.Is(err, errDiskFull) {
		t.Fatalf("post-error Write = %v, want disk-full", err)
	}
	if err := s.Close(); !errors.Is(err, errDiskFull) {
		t.Fatalf("Close after failed periodic flush = %v, want disk-full", err)
	}
}

func TestDecimatedSinkCloseSurfacesFlushError(t *testing.T) {
	w := &chokeWriter{budget: 0}
	s := Every(5, NewJSONLSink(w, 1000))
	for i := 0; i < 10; i++ {
		if err := s.Write(RoundStats{Round: i}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); !errors.Is(err, errDiskFull) {
		t.Fatalf("decimated Close = %v, want the inner flush error", err)
	}
}

func TestRunSoakSurfacesSinkError(t *testing.T) {
	// A sink that chokes mid-run must abort the soak with the sink error,
	// not let it keep simulating over a dead stream.
	w := &chokeWriter{budget: 256}
	_, err := RunSoak(SoakConfig{
		N: 20, Dmax: 3, Seed: 3, Workers: 1, MaxRounds: 50,
		Sink: NewJSONLSink(w, 1),
	})
	if err == nil || !strings.Contains(err.Error(), "sink") || !errors.Is(err, errDiskFull) {
		t.Fatalf("RunSoak = %v, want a wrapped sink disk-full error", err)
	}
}
