package introspect

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// Server is a live introspection endpoint: net/http/pprof for CPU, heap
// and execution-trace profiling of a running engine, plus the registry's
// flight-recorder snapshot as expvar-style JSON. It rides its own mux on
// its own listener, so arming it never touches any default global state.
//
// Endpoints:
//
//	/debug/pprof/...   the standard pprof index, profiles and trace
//	/debug/registry    Snapshot (counters + phase_ns + busy_ns) as JSON
//	/                  a one-page index
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// NewMux builds the introspection handler tree. reg may be nil (a
// profiling-only surface, e.g. a driver running many engines): the
// registry endpoint then serves an empty snapshot.
func NewMux(reg *Registry) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/debug/registry", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		snap := Snapshot{Counters: map[string]uint64{}, PhaseNs: map[string]int64{}, BusyNs: map[string]int64{}}
		if reg != nil {
			snap = reg.Snapshot()
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(snap)
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprintf(w, "flight recorder\n\n/debug/registry\n/debug/pprof/\n")
	})
	return mux
}

// Serve starts the introspection server on addr (e.g. "localhost:6060";
// a ":0" port picks a free one — read it back with Addr). It returns as
// soon as the listener is bound; the caller owns the Server and must
// Close it.
func Serve(addr string, reg *Registry) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{ln: ln, srv: &http.Server{Handler: NewMux(reg), ReadHeaderTimeout: 10 * time.Second}}
	go s.srv.Serve(ln)
	return s, nil
}

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close shuts the listener down and drops in-flight connections (the
// surface is diagnostic; a soak run must never block on a slow scraper).
func (s *Server) Close() error { return s.srv.Close() }
