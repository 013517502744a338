package dist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// linkKind is one kind of byte stream the mesh runs over; the conformance
// table below holds the one mesh to the same behaviour on each.
type linkKind struct {
	name string
	// product builds an n-way mesh as the product does (NewLoopback, DialTCP).
	product func(t *testing.T, n int) []Transport
	// pair returns the two ends of one link.
	pair func(t *testing.T) (a, b net.Conn)
}

var (
	pipeLinks = linkKind{
		name:    "pipe",
		product: func(_ *testing.T, n int) []Transport { return NewLoopback(n) },
		pair:    func(*testing.T) (a, b net.Conn) { return net.Pipe() },
	}
	tcpLinks = linkKind{
		name: "tcp",
		product: func(t *testing.T, n int) []Transport {
			addrs := make([]string, n)
			for i := range addrs {
				addrs[i] = freeAddr(t)
			}
			trs := make([]Transport, n)
			var wg sync.WaitGroup
			for i := range trs {
				wg.Add(1)
				go func() {
					defer wg.Done()
					var err error
					if trs[i], err = DialTCP(i, addrs); err != nil {
						t.Error(err)
					}
				}()
			}
			if wg.Wait(); t.Failed() {
				t.FailNow()
			}
			return trs
		},
		pair: func(t *testing.T) (a, b net.Conn) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			if a, err = net.Dial("tcp", ln.Addr().String()); err != nil {
				t.Fatal(err)
			}
			if b, err = ln.Accept(); err != nil {
				t.Fatal(err)
			}
			return a, b
		},
	}
)

// freeAddr reserves a localhost port by binding and releasing it.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// meshesOver builds an n-way mesh over k's links under a bound of the
// test's choosing, closed when the test ends.
func meshesOver(t *testing.T, k linkKind, n int, bound time.Duration) []*mesh {
	links := make([][]io.ReadWriteCloser, n)
	for i := range links {
		links[i] = make([]io.ReadWriteCloser, n)
	}
	for i := range links {
		for j := i + 1; j < n; j++ {
			links[i][j], links[j][i] = k.pair(t)
		}
	}
	ms := make([]*mesh, n)
	for i := range ms {
		ms[i] = newMesh(i, links[i], bound)
		t.Cleanup(func() { ms[i].Close() })
	}
	return ms
}

// rawPeer is a one-link mesh (shard 0 of 2) and the other end of its link,
// which the test plays by hand.
func rawPeer(t *testing.T, k linkKind, bound time.Duration) (*mesh, net.Conn) {
	a, b := k.pair(t)
	m := newMesh(0, []io.ReadWriteCloser{nil, a}, bound)
	t.Cleanup(func() { m.Close(); b.Close() })
	return m, b
}

func frameHeader(seq uint64, size uint32) []byte {
	return binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint64(nil, seq), size)
}

// exchangeResult is how a call that waits for peers ended, and how long
// it took.
type exchangeResult struct {
	err  error
	took time.Duration
}

// exchangeAsync runs tr.Exchange(seq, out) beside the test.
func exchangeAsync(tr Transport, seq uint64, out [][]byte) <-chan exchangeResult {
	done := make(chan exchangeResult, 1)
	go func() {
		start := time.Now()
		_, err := tr.Exchange(seq, out)
		done <- exchangeResult{err, time.Since(start)}
	}()
	return done
}

// wantFailure holds one failed Exchange to what the error must say, whether
// it is a cascade (ErrTransportClosed) or a root cause, and the time it may
// have taken.
func wantFailure(t *testing.T, who string, r exchangeResult, within time.Duration, closed bool, says ...string) {
	t.Helper()
	if r.err == nil {
		t.Fatalf("%s: Exchange succeeded", who)
	}
	if r.took > within {
		t.Errorf("%s: Exchange failed after %v, want within %v", who, r.took, within)
	}
	if errors.Is(r.err, ErrTransportClosed) != closed {
		t.Errorf("%s: errors.Is(%q, ErrTransportClosed) = %v, want %v", who, r.err, !closed, closed)
	}
	for _, s := range says {
		if !strings.Contains(r.err.Error(), s) {
			t.Errorf("%s: error %q does not say %q", who, r.err, s)
		}
	}
}

// exerciseTransport pins what every Transport owes its callers: over
// several exchanges each payload arrives whole at its addressee, in[self]
// is nil, and a payload is readable until the receiving endpoint's next
// Exchange — it is read just before that, after the senders may have gone
// on to fill their next one, and not after (the mesh reuses it from then
// on).
func exerciseTransport(t *testing.T, trs []Transport) {
	t.Helper()
	n := len(trs)
	errc := make(chan error, n)
	for i := range trs {
		go func() {
			errc <- func() error {
				var prev [][]byte
				for seq := uint64(7); seq < 12; seq++ {
					out := make([][]byte, n)
					for p := range out {
						if p != i {
							// Lengths differ by round and peer, and one round
							// ships nothing: reused storage must not show through.
							out[p] = bytes.Repeat([]byte(fmt.Sprintf("%d->%d#%d ", i, p, seq)), int(seq+uint64(p))%4)
						}
					}
					want := func(seq uint64, p int) string {
						return strings.Repeat(fmt.Sprintf("%d->%d#%d ", p, i, seq), int(seq+uint64(i))%4)
					}
					for p, got := range prev {
						if p != i && string(got) != want(seq-1, p) {
							return fmt.Errorf("shard %d, before its exchange %d: payload from %d reads %q, want %q", i, seq, p, got, want(seq-1, p))
						}
					}
					in, err := trs[i].Exchange(seq, out)
					if err != nil {
						return err
					}
					if in[i] != nil {
						return fmt.Errorf("shard %d received from itself", i)
					}
					for p, got := range in {
						if p != i && string(got) != want(seq, p) {
							return fmt.Errorf("shard %d from %d at %d: %q want %q", i, p, seq, got, want(seq, p))
						}
					}
					prev = in
				}
				return nil
			}()
		}()
	}
	for range trs {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
}

// transportConformance is the table both link kinds run: the barrier and
// the payload lifetime, a warm Exchange that allocates nothing, and bounded,
// named failure — a peer that closes, one that never calls Exchange, one
// that never reads, one out of step, one that announces a frame too large.
func transportConformance(t *testing.T, k linkKind) {
	const n, short = 3, 150 * time.Millisecond

	t.Run("exchange", func(t *testing.T) {
		trs := k.product(t, n)
		defer func() {
			for _, tr := range trs {
				tr.Close()
			}
		}()
		if _, ok := trs[0].(*mesh); !ok {
			t.Fatalf("the product's transport over %s links is a %T, want the one *mesh", k.name, trs[0])
		}
		exerciseTransport(t, trs)

		// Warm, every endpoint's Exchange — this side's writes, its readers'
		// frames, the hand-off, the timer — allocates nothing.
		const warm, runs = 4, 50
		out := make([][]byte, n)
		for p := range out {
			out[p] = bytes.Repeat([]byte{byte(p)}, 200)
		}
		errc := make(chan error, n-1)
		for _, tr := range trs[1:] {
			go func() {
				for seq := uint64(0); seq < warm+runs+1; seq++ {
					if _, err := tr.Exchange(seq, out); err != nil {
						errc <- err
						return
					}
				}
				errc <- nil
			}()
		}
		seq := uint64(0)
		step := func() {
			if _, err := trs[0].Exchange(seq, out); err != nil {
				t.Fatal(err)
			}
			seq++
		}
		for seq < warm {
			step()
		}
		if allocs := testing.AllocsPerRun(runs, step); allocs != 0 {
			t.Errorf("a warm Exchange over %s links allocates %v objects (all %d endpoints counted)", k.name, allocs, n)
		}
		for range trs[1:] {
			if err := <-errc; err != nil {
				t.Fatal(err)
			}
		}
	})

	t.Run("peer closes mid-run", func(t *testing.T) {
		ms := meshesOver(t, k, n, peerTimeout)
		out := make([][]byte, n)
		for seq := uint64(1); seq <= 2; seq++ {
			var pending []<-chan exchangeResult
			for _, m := range ms {
				pending = append(pending, exchangeAsync(m, seq, out))
			}
			for _, p := range pending {
				if r := <-p; r.err != nil {
					t.Fatal(r.err)
				}
			}
		}
		// Shards 0 and 1 enter exchange 3. The closing peer is the last they
		// write to, so once its readers hold their frames both are past
		// their writes and blocked on its frame — and not on each other.
		const closer = n - 1
		blocked := []<-chan exchangeResult{exchangeAsync(ms[0], 3, out), exchangeAsync(ms[1], 3, out)}
		for p := range blocked {
			if f := <-ms[closer].recv[p]; f.err != nil || f.seq != 3 {
				t.Fatalf("shard %d's frame at the closing peer: seq %d, error %v", p, f.seq, f.err)
			}
		}
		closedAt := time.Now()
		ms[closer].Close()
		for p, done := range blocked {
			r := <-done
			r.took = time.Since(closedAt)
			wantFailure(t, fmt.Sprintf("shard %d", p), r, time.Second, true, fmt.Sprintf("shard %d:", p), "shard 2", "seq 3")
		}
	})

	t.Run("silent peer", func(t *testing.T) {
		baseline := runtime.NumGoroutine()
		ms := meshesOver(t, k, n, short)
		out := make([][]byte, n)
		blocked := []<-chan exchangeResult{exchangeAsync(ms[0], 5, out), exchangeAsync(ms[1], 5, out)}
		for p, done := range blocked {
			wantFailure(t, fmt.Sprintf("shard %d", p), <-done, short+time.Second, false,
				fmt.Sprintf("shard %d: waiting for shard 2 at seq 5", p), "timed out after "+short.String())
		}
		// The endpoint closed itself: it fails at once from here on, and when
		// the silent peer is closed too no reader or timer goroutine is left.
		wantFailure(t, "shard 0, again", <-exchangeAsync(ms[0], 6, out), short/2, true, "seq 6")
		ms[2].Close()
		for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > baseline; time.Sleep(5 * time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%d goroutines, %d before the mesh was built: readers outlive Close", runtime.NumGoroutine(), baseline)
			}
		}
	})

	t.Run("peer never reads", func(t *testing.T) {
		m, peer := rawPeer(t, k, short)
		// The peer sends but takes nothing: a pipe blocks the write at once,
		// TCP when the kernel's buffers (shrunk here) are full.
		if tc, ok := peer.(*net.TCPConn); ok {
			tc.SetReadBuffer(4 << 10)
			m.links[1].(*net.TCPConn).SetWriteBuffer(4 << 10)
		}
		go peer.Write(frameHeader(1, 0))
		r := <-exchangeAsync(m, 1, [][]byte{nil, make([]byte, 8<<20)})
		wantFailure(t, "shard 0", r, short+time.Second, false, "shard 0: sending to shard 1 at seq 1", "timed out")
	})

	t.Run("seq mismatch", func(t *testing.T) {
		m, peer := rawPeer(t, k, peerTimeout)
		go io.Copy(io.Discard, peer)
		go peer.Write(frameHeader(9, 0))
		r := <-exchangeAsync(m, 7, make([][]byte, 2))
		wantFailure(t, "shard 0", r, time.Second, false, "shard 0: waiting for shard 1 at seq 7", "sent seq 9")
	})

	t.Run("oversize frame", func(t *testing.T) {
		m, peer := rawPeer(t, k, peerTimeout)
		go io.Copy(io.Discard, peer)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		go peer.Write(frameHeader(7, ^uint32(0)))
		r := <-exchangeAsync(m, 7, make([][]byte, 2))
		runtime.ReadMemStats(&after)
		wantFailure(t, "shard 0", r, time.Second, false, "shard 1 at seq 7", "frame of 4294967295 bytes")
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<10 {
			t.Errorf("a 12-byte header made the mesh allocate %d bytes", grew)
		}
	})
}

// TestLoopbackTransport runs the conformance table over net.Pipe links,
// the in-process mesh.
func TestLoopbackTransport(t *testing.T) {
	transportConformance(t, pipeLinks)
}

// TestTCPTransport checks a 2-shard run over localhost TCP, one goroutine
// per "process", against the single-process fingerprint — the in-CI
// stand-in for the two-OS-process smoke (which scripts/dist_smoke.sh runs
// end to end) — and then runs the conformance table over TCP links.
func TestTCPTransport(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP mesh in -short")
	}
	soak := obs.SoakConfig{N: 60, Side: 14, Seed: 3, Dmax: 3, MaxRounds: 12, Fingerprint: true}
	ref, err := obs.RunSoak(soak)
	if err != nil {
		t.Fatal(err)
	}
	addrs := []string{freeAddr(t), freeAddr(t)}
	cfg := Config{Soak: soak, Shards: 2}
	type res struct {
		r   *obs.SoakResult
		err error
	}
	ch := make(chan res, 2)
	for i := 0; i < 2; i++ {
		go func(i int) {
			r, err := RunTCP(cfg, i, addrs)
			ch <- res{r, err}
		}(i)
	}
	var lead *obs.SoakResult
	for i := 0; i < 2; i++ {
		r := <-ch
		if r.err != nil {
			t.Fatal(r.err)
		}
		if r.r != nil {
			lead = r.r
		}
	}
	if lead == nil {
		t.Fatal("no lead result")
	}
	if lead.Fingerprint != ref.Fingerprint {
		t.Fatalf("tcp fingerprint %016x vs %016x", lead.Fingerprint, ref.Fingerprint)
	}
	if !reflect.DeepEqual(lead.Final, ref.Final) {
		t.Fatalf("tcp final stats diverged:\n 1p: %+v\n 2p: %+v", ref.Final, lead.Final)
	}
	transportConformance(t, tcpLinks)
}

// TestTCPSetupIsBounded pins that a mesh whose peers never all arrive gives
// up within its bound on the listening side too, naming who is missing: a
// higher-indexed shard that never starts, and one that connects and never
// says hello.
func TestTCPSetupIsBounded(t *testing.T) {
	const short = 300 * time.Millisecond
	setup := func(addrs []string) exchangeResult {
		start := time.Now()
		tr, err := dialTCP(0, addrs, short)
		if err == nil {
			tr.Close()
		}
		return exchangeResult{err, time.Since(start)}
	}
	addrs := []string{freeAddr(t), freeAddr(t)}
	r := setup(addrs)
	if r.err == nil || r.took > short+time.Second || !strings.Contains(r.err.Error(), "shard 0: no link to shards [1] within "+short.String()) {
		t.Errorf("shard 1 never started: set-up returned %v after %v", r.err, r.took)
	}

	addrs = []string{freeAddr(t), freeAddr(t)}
	mute := make(chan net.Conn, 1)
	go func() {
		defer close(mute)
		for tries := 0; tries < 200; tries++ {
			if c, err := net.Dial("tcp", addrs[0]); err == nil {
				mute <- c
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
	}()
	r = setup(addrs)
	if c := <-mute; c != nil {
		c.Close()
	} else {
		t.Error("the mute peer never connected")
	}
	if r.err == nil || r.took > short+time.Second || !strings.Contains(r.err.Error(), "no link to shards [1]") || !strings.Contains(r.err.Error(), "hello") {
		t.Errorf("shard 1 never said hello: set-up returned %v after %v", r.err, r.took)
	}
}
