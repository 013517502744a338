package dist

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// Transport is the lockstep all-to-all exchange among n shard processes:
// every shard calls Exchange with the same sequence number each round,
// ships out[p] to each peer p, and blocks until every peer's payload for
// that sequence has arrived — the round barrier the deterministic merge
// relies on — or fails within peerTimeout and closes the endpoint, so that
// every peer's Exchange fails in turn.
//
// Contract: out[self] is ignored and in[self] is nil. out is the caller's
// again when Exchange returns; in and its payloads are the transport's and
// read-only, valid until the caller's next Exchange here reuses them.
type Transport interface {
	Exchange(seq uint64, out [][]byte) (in [][]byte, err error)
	Close() error
}

// ErrTransportClosed reports an Exchange cut short by Close, here or on a
// peer: the error of a shard that failed because another did.
var ErrTransportClosed = errors.New("dist: transport closed")

// peerTimeout bounds every wait for a peer: to join the mesh at set-up (so
// processes start within it of each other), and in each Exchange thereafter.
const peerTimeout = 30 * time.Second

// maxFrame bounds a length header before any storage is sized by it: a
// corrupt or hostile peer must not drive an arbitrary allocation.
const maxFrame = 1 << 28

// mesh is the one Transport: a full mesh of byte streams (net.Pipe pairs in
// one process, TCP connections across processes), links[p] to peer p and nil
// at self, each carrying frames [seq u64][len u32][payload].
type mesh struct {
	self  int
	links []io.ReadWriteCloser
	recv  []chan frame // per link, from its reader; unbuffered (see readLoop)
	in    [][]byte
	wbuf  []byte

	// One timer bounds each Exchange, reads and writes alike, by closing the
	// mesh: a deadline set on every link every call would allocate on pipes.
	bound   time.Duration
	timer   *time.Timer
	expired atomic.Bool

	dead    chan struct{}
	once    sync.Once
	readers sync.WaitGroup
}

type frame struct {
	seq     uint64
	payload []byte
	err     error
}

func newMesh(self int, links []io.ReadWriteCloser, bound time.Duration) *mesh {
	m := &mesh{
		self:  self,
		links: links,
		recv:  make([]chan frame, len(links)),
		in:    make([][]byte, len(links)),
		bound: bound,
		dead:  make(chan struct{}),
	}
	m.timer = time.AfterFunc(bound, func() {
		m.expired.Store(true)
		m.Close()
	})
	m.timer.Stop()
	for p, l := range links {
		if l != nil {
			m.recv[p] = make(chan frame)
			m.readers.Add(1)
			go m.readLoop(l, m.recv[p])
		}
	}
	return m
}

// NewLoopback builds an n-way in-process mesh, one endpoint per shard.
// Closing any endpoint fails every peer blocked in Exchange.
func NewLoopback(n int) []Transport {
	links := make([][]io.ReadWriteCloser, n)
	for i := range links {
		links[i] = make([]io.ReadWriteCloser, n)
	}
	for i := range links {
		for j := i + 1; j < n; j++ {
			links[i][j], links[j][i] = net.Pipe()
		}
	}
	eps := make([]Transport, n)
	for i := range eps {
		eps[i] = newMesh(i, links[i], peerTimeout)
	}
	return eps
}

// readLoop decouples one link's reads from Exchange's writes, so two shards
// writing to each other cannot deadlock. Frames land alternately in two
// buffers and are handed over an unbuffered channel: the reader fills one
// while the caller holds the payload in the other, and cannot come back to
// that before the caller's next Exchange took the frame between — which a
// buffered hand-off would let it.
func (m *mesh) readLoop(link io.Reader, to chan<- frame) {
	defer m.readers.Done()
	br := bufio.NewReader(link)
	var bufs [2][]byte
	var hdr [12]byte
	for i := 0; ; i ^= 1 {
		var f frame
		_, err := io.ReadFull(br, hdr[:])
		if size := binary.LittleEndian.Uint32(hdr[8:]); err == nil && size > maxFrame {
			f.err = fmt.Errorf("frame of %d bytes", size)
		} else if err == nil {
			bufs[i] = slices.Grow(bufs[i][:0], int(size))[:size]
			f.seq, f.payload = binary.LittleEndian.Uint64(hdr[:]), bufs[i]
			_, err = io.ReadFull(br, f.payload)
		}
		if err != nil {
			f.err = fmt.Errorf("%w (%v)", ErrTransportClosed, err)
		}
		select {
		case to <- f:
		case <-m.dead:
			return
		}
		if f.err != nil {
			return
		}
	}
}

// Exchange implements Transport.
func (m *mesh) Exchange(seq uint64, out [][]byte) ([][]byte, error) {
	if len(out) != len(m.links) {
		m.Close()
		return nil, fmt.Errorf("dist: shard %d: %d payloads for %d shards at seq %d", m.self, len(out), len(m.links), seq)
	}
	m.timer.Reset(m.bound)
	defer m.timer.Stop()
	for p, l := range m.links {
		if l == nil {
			continue
		}
		m.wbuf = binary.LittleEndian.AppendUint64(m.wbuf[:0], seq)
		m.wbuf = binary.LittleEndian.AppendUint32(m.wbuf, uint32(len(out[p])))
		m.wbuf = append(m.wbuf, out[p]...)
		if _, err := l.Write(m.wbuf); err != nil {
			return nil, m.fail("sending to", p, seq, fmt.Errorf("%w (%v)", ErrTransportClosed, err))
		}
	}
	for p, ch := range m.recv {
		if ch == nil {
			continue
		}
		select {
		case f := <-ch:
			if f.err == nil && f.seq != seq {
				f.err = fmt.Errorf("it sent seq %d", f.seq)
			}
			if f.err != nil {
				return nil, m.fail("waiting for", p, seq, f.err)
			}
			m.in[p] = f.payload
		case <-m.dead:
			return nil, m.fail("waiting for", p, seq, ErrTransportClosed)
		}
	}
	return m.in, nil
}

// fail closes the mesh and names who was blocked on whom. Past the bound
// the cause is the peer's silence, not the closing it led to: that error is
// no ErrTransportClosed but the root cause the peers' errors cascade from.
func (m *mesh) fail(doing string, p int, seq uint64, cause error) error {
	m.Close()
	if m.expired.Swap(false) {
		cause = fmt.Errorf("timed out after %v", m.bound)
	}
	return fmt.Errorf("dist: shard %d: %s shard %d at seq %d: %w", m.self, doing, p, seq, cause)
}

// Close closes every link — each peer's next read or write on it fails —
// and returns when the readers have exited.
func (m *mesh) Close() error {
	m.once.Do(func() {
		m.timer.Stop()
		close(m.dead)
		for _, l := range m.links {
			if l != nil {
				l.Close() // the links are only torn down: nothing is flushed
			}
		}
	})
	m.readers.Wait()
	return nil
}
