package dist

import (
	"errors"
	"fmt"
	"sync"
)

// Transport is the lockstep all-to-all exchange among n shard
// processes: every shard calls Exchange with the same sequence number
// each round, ships out[p] to each peer p, and blocks until every
// peer's payload for that sequence has arrived — the round barrier the
// deterministic merge relies on.
//
// Contract: out[self] is ignored and in[self] is nil. out is the caller's
// again when Exchange returns; in and its payloads are the transport's,
// read-only, and valid until the caller's next Exchange on this endpoint,
// from when an implementation may reuse them (the loopback does): whoever
// keeps anything of a payload copies it.
type Transport interface {
	Exchange(seq uint64, out [][]byte) (in [][]byte, err error)
	Close() error
}

// ErrTransportClosed reports an Exchange cut short by Close (or by a
// peer failing and closing the shared fabric).
var ErrTransportClosed = errors.New("dist: transport closed")

// loopFabric is the shared in-memory fabric behind NewLoopback: a full
// mesh of buffered channels. Capacity 2 is sufficient for deadlock
// freedom — Exchange is a barrier, so no shard can run more than one
// round ahead of the slowest, bounding the frames in flight per edge.
type loopFabric struct {
	n     int
	chans [][]chan loopMsg // [from][to]
	dead  chan struct{}
	once  sync.Once
}

type loopMsg struct {
	seq     uint64
	payload []byte
}

// loopback is one endpoint. A peer reads the copy shipped to it until its
// next Exchange, and the barrier lets this side run at most one Exchange
// ahead: of two copies per edge, written alternately, neither is read.
type loopback struct {
	fab   *loopFabric
	self  int
	calls int
	bufs  [][2][]byte // [to]: this call's copy and the previous call's
	in    [][]byte
}

// NewLoopback builds an n-way in-memory transport and returns one
// endpoint per shard. Closing any endpoint releases every peer blocked
// in Exchange (so one failing shard cannot hang the rest).
func NewLoopback(n int) []Transport {
	fab := &loopFabric{n: n, dead: make(chan struct{})}
	fab.chans = make([][]chan loopMsg, n)
	for i := range fab.chans {
		fab.chans[i] = make([]chan loopMsg, n)
		for j := range fab.chans[i] {
			if i != j {
				fab.chans[i][j] = make(chan loopMsg, 2)
			}
		}
	}
	eps := make([]Transport, n)
	for i := range eps {
		eps[i] = &loopback{fab: fab, self: i, bufs: make([][2][]byte, n), in: make([][]byte, n)}
	}
	return eps
}

func (l *loopback) Exchange(seq uint64, out [][]byte) ([][]byte, error) {
	fab := l.fab
	if len(out) != fab.n {
		return nil, fmt.Errorf("dist: loopback: %d payloads for %d shards", len(out), fab.n)
	}
	l.calls++
	for p := 0; p < fab.n; p++ {
		if p == l.self {
			continue
		}
		buf := &l.bufs[p][l.calls&1]
		*buf = append((*buf)[:0], out[p]...)
		select {
		case fab.chans[l.self][p] <- loopMsg{seq: seq, payload: *buf}:
		case <-fab.dead:
			return nil, ErrTransportClosed
		}
	}
	in := l.in
	for p := 0; p < fab.n; p++ {
		if p == l.self {
			continue
		}
		select {
		case m := <-fab.chans[p][l.self]:
			if m.seq != seq {
				return nil, fmt.Errorf("dist: loopback: shard %d sent seq %d, want %d", p, m.seq, seq)
			}
			in[p] = m.payload
		case <-fab.dead:
			return nil, ErrTransportClosed
		}
	}
	return in, nil
}

func (l *loopback) Close() error {
	l.fab.once.Do(func() { close(l.fab.dead) })
	return nil
}
