package dist

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"time"
)

// DialTCP connects shard self into the cross-process mesh of addrs (one
// listen address per shard, index-aligned) and returns once every pair is
// connected: the lower-indexed shard of a pair listens, the higher one dials
// (retrying, so start order doesn't matter) and says who it is in a hello.
func DialTCP(self int, addrs []string) (Transport, error) {
	return dialTCP(self, addrs, peerTimeout)
}

// dialTCP is DialTCP under the caller's bound, the test seam: the whole
// set-up — accepts, hellos, dials — and then every Exchange of the mesh it
// returns wait that long for a peer, no longer.
func dialTCP(self int, addrs []string, bound time.Duration) (Transport, error) {
	n := len(addrs)
	if self < 0 || self >= n {
		return nil, fmt.Errorf("dist: tcp: shard %d outside %d addrs", self, n)
	}
	deadline := time.Now().Add(bound)
	links := make([]io.ReadWriteCloser, n)
	var hello [4]byte
	// fail gives up the links made so far and names the shards still missing.
	fail := func(err error) (Transport, error) {
		var missing []int
		for p, l := range links {
			if l != nil {
				l.Close()
			} else if p != self {
				missing = append(missing, p)
			}
		}
		return nil, fmt.Errorf("dist: tcp: shard %d: no link to shards %v within %v: %w", self, missing, bound, err)
	}
	// Accept from every higher-indexed peer.
	if self < n-1 {
		ln, err := net.Listen("tcp", addrs[self])
		if err != nil {
			return nil, fmt.Errorf("dist: tcp: listen %s: %w", addrs[self], err)
		}
		defer ln.Close()
		ln.(*net.TCPListener).SetDeadline(deadline)
		for need := n - 1 - self; need > 0; need-- {
			conn, err := ln.Accept()
			if err != nil {
				return fail(err)
			}
			conn.SetReadDeadline(deadline)
			_, err = io.ReadFull(conn, hello[:])
			peer := int(binary.LittleEndian.Uint32(hello[:]))
			if err == nil && (peer <= self || peer >= n || links[peer] != nil) {
				err = fmt.Errorf("bad hello from shard %d", peer)
			}
			if err != nil {
				conn.Close()
				return fail(fmt.Errorf("hello from %s: %w", conn.RemoteAddr(), err))
			}
			conn.SetReadDeadline(time.Time{})
			links[peer] = conn
		}
	}
	// Dial every lower-indexed peer (they may not be listening yet).
	for peer := 0; peer < self; peer++ {
		for {
			conn, err := net.DialTimeout("tcp", addrs[peer], time.Second)
			if err == nil {
				binary.LittleEndian.PutUint32(hello[:], uint32(self))
				if _, err = conn.Write(hello[:]); err == nil {
					links[peer] = conn
					break
				}
				conn.Close()
			}
			if time.Now().After(deadline) {
				return fail(err)
			}
			time.Sleep(50 * time.Millisecond)
		}
	}
	return newMesh(self, links, bound), nil
}
