package core

// The build-internal reference implementations: the map-based
// BuildMessage and learnPriorities paths this package used before the
// allocation-light rewrite, retained verbatim as a differential oracle.
// When a node's Scratch.SelfCheck is set, every BuildMessage and Compute
// cross-validates the new flat-record path against these and panics on
// the first divergence — the conformance suite (internal/conformance)
// runs whole churning engines in this mode. Nothing here is reachable
// from production paths.

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/antlist"
	"repro/internal/ident"
	"repro/internal/priority"
)

// refMessage is the pre-rewrite message shape: per-ID maps instead of the
// flat record slice.
type refMessage struct {
	From       ident.NodeID
	List       antlist.List
	Prios      map[ident.NodeID]priority.P
	GroupPrios map[ident.NodeID]priority.P
	GroupPrio  priority.P
	Quars      map[ident.NodeID]int
}

// refBuildMessage is the map-based broadcast assembly, verbatim (modulo
// reading the view/quarantine through the map views of the slice state).
func (n *Node) refBuildMessage() refMessage {
	view := n.ViewSet()
	count := n.list.NodeCount() + 1
	prios := make(map[ident.NodeID]priority.P, count)
	gprios := make(map[ident.NodeID]priority.P, count)
	for i := 0; i < n.list.Len(); i++ {
		for _, e := range n.list.At(i) {
			u := e.ID
			if p, ok := precGet(n.prios, u); ok {
				prios[u] = p
			} else {
				prios[u] = priority.Infinite
			}
			switch {
			case view[u]:
				gprios[u] = n.group
			default:
				if g, ok := precGet(n.gprs, u); ok {
					gprios[u] = g
				} else {
					gprios[u] = prios[u]
				}
			}
		}
	}
	prios[n.id] = n.self
	gprios[n.id] = n.group
	var quars map[ident.NodeID]int
	for _, qe := range n.quar {
		if qe.q > 0 {
			if quars == nil {
				quars = make(map[ident.NodeID]int)
			}
			quars[qe.id] = int(qe.q)
		}
	}
	return refMessage{
		From:       n.id,
		List:       n.list.Clone(),
		Prios:      prios,
		GroupPrios: gprios,
		GroupPrio:  n.group,
		Quars:      quars,
	}
}

// checkRefMessage asserts that the flat-record message m carries exactly
// the content the map-based path would have sent.
func (n *Node) checkRefMessage(m Message) {
	ref := n.refBuildMessage()
	prios, gprios, quars := m.PrioMaps()
	if m.From != ref.From || !m.List.Equal(ref.List) || m.GroupPrio != ref.GroupPrio {
		panic(fmt.Sprintf("core: SelfCheck BuildMessage header diverged: %v vs ref %v", m, ref))
	}
	if !prioMapsEqual(prios, ref.Prios) {
		panic(fmt.Sprintf("core: SelfCheck BuildMessage prios diverged at %v: %v vs ref %v", n.id, prios, ref.Prios))
	}
	if !prioMapsEqual(gprios, ref.GroupPrios) {
		panic(fmt.Sprintf("core: SelfCheck BuildMessage group prios diverged at %v: %v vs ref %v", n.id, gprios, ref.GroupPrios))
	}
	if !quarMapsEqual(quars, ref.Quars) {
		panic(fmt.Sprintf("core: SelfCheck BuildMessage quars diverged at %v: %v vs ref %v", n.id, quars, ref.Quars))
	}
	if got, want := m.EncodedSize(), 4+12+ref.List.EncodedSize()+12*len(ref.Prios)+12*len(ref.GroupPrios)+5*len(ref.Quars); got != want {
		panic(fmt.Sprintf("core: SelfCheck EncodedSize diverged at %v: %d vs ref %d", n.id, got, want))
	}
}

// checkRefLearnPriorities replays the map-based learnPriorities over the
// pre-round cache snapshots and asserts the node's live caches match.
func (n *Node) checkRefLearnPriorities(newList antlist.List, incs []incoming, prevPrios, prevGprs map[ident.NodeID]priority.P) {
	msgs := make(map[ident.NodeID]refMessage, len(incs))
	for i := range incs {
		m := incs[i].msg
		p, g, q := m.PrioMaps()
		msgs[m.From] = refMessage{
			From: m.From, List: m.List,
			Prios: p, GroupPrios: g, GroupPrio: m.GroupPrio, Quars: q,
		}
	}
	refLearnPriorities(n.id, n.self, newList, msgs, prevPrios, prevGprs)
	if !prioMapsEqual(precMap(n.prios), prevPrios) {
		panic(fmt.Sprintf("core: SelfCheck learnPriorities prios diverged at %v (c%d): %v vs ref %v", n.id, n.computes, n.prios, prevPrios))
	}
	if !prioMapsEqual(precMap(n.gprs), prevGprs) {
		panic(fmt.Sprintf("core: SelfCheck learnPriorities gprs diverged at %v (c%d): %v vs ref %v", n.id, n.computes, n.gprs, prevGprs))
	}
}

// refLearnPriorities is the map-based priority learning, verbatim: it
// mutates prios/gprs (the pre-round snapshots) exactly as the pre-rewrite
// code mutated the node's live caches — ascending sender iteration, map
// probes, and List.Position re-scans included.
func refLearnPriorities(id ident.NodeID, self priority.P, newList antlist.List, msgs map[ident.NodeID]refMessage, prios, gprs map[ident.NodeID]priority.P) {
	senders := make([]ident.NodeID, 0, len(msgs))
	for u := range msgs {
		senders = append(senders, u)
	}
	sort.Slice(senders, func(i, j int) bool { return senders[i] < senders[j] })

	for li := 0; li < newList.Len(); li++ {
		for _, e := range newList.At(li) {
			u := e.ID
			best, found := priority.Infinite, false
			for _, sid := range senders {
				if p, ok := msgs[sid].Prios[u]; ok && (!found || best.Less(p)) {
					best, found = p, true
				}
			}
			if found {
				prios[u] = best
			}
			bestPos := -1
			var gbest priority.P
			for _, sid := range senders {
				msg := msgs[sid]
				p, ok := msg.GroupPrios[u]
				if !ok {
					continue
				}
				pos, _ := msg.List.Position(u)
				if pos < 0 {
					continue
				}
				if bestPos < 0 || pos < bestPos {
					bestPos, gbest = pos, p
				}
			}
			if bestPos >= 0 {
				gprs[u] = gbest
			}
		}
	}
	prios[id] = self
	for k := range prios {
		if k != id && !newList.Has(k) {
			delete(prios, k)
		}
	}
	for k := range gprs {
		if k != id && !newList.Has(k) {
			delete(gprs, k)
		}
	}
}

func prioMapsEqual(a, b map[ident.NodeID]priority.P) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if w, ok := b[k]; !ok || v != w {
			return false
		}
	}
	return true
}

func quarMapsEqual(a, b map[ident.NodeID]int) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if w, ok := b[k]; !ok || v != w {
			return false
		}
	}
	return true
}

// scribble replaces every buffer of s, at its capacity, with garbage about
// a node that does not exist. A later use that read anything before
// writing it would fold that node in and diverge from an unscribbled twin.
func (s *Scratch) scribble() {
	const junk = ident.NodeID(0xBAD0BAD0)
	l := antlist.Singleton(ident.Double(junk))
	s.bld.BeginRound(ident.Single(junk))
	s.bld.Ant(s.bld.Singleton(ident.Plain(junk)))
	s.bld.Ant(l)
	s.incs = slices.Repeat([]incoming{{list: l, msg: &Message{From: junk, List: l}}}, cap(s.incs))
	s.heard = slices.Repeat([]heardRec{{id: junk, q: 1}}, cap(s.heard))
	s.view = slices.Repeat([]ident.NodeID{junk}, cap(s.view))
	s.quar = slices.Repeat([]quarEntry{{id: junk, q: 1}}, cap(s.quar))
	s.prios = slices.Repeat([]prec{{id: junk}}, cap(s.prios))
	s.gprs = slices.Repeat([]prec{{id: junk}}, cap(s.gprs))
	s.readSet = slices.Repeat([]ident.NodeID{junk}, cap(s.readSet))
}

// PoisonEntries and PoisonMessage are scribble for a replaced broadcast's
// list entries and for the broadcast itself, header and records: a receiver
// still reading them diverges.
func PoisonEntries(ents []ident.Entry) {
	ents = ents[:cap(ents)]
	for i := range ents {
		ents[i] = ident.Plain(0xBAD0BAD1)
	}
}

func PoisonMessage(m *Message) {
	bad := PrioRec{ID: ^ident.NodeID(0), HasPrio: true, Pos: -7, Quar: 99, Prio: priority.P{Clock: 1 << 40}}
	copy(m.Recs[:cap(m.Recs)], slices.Repeat([]PrioRec{bad}, cap(m.Recs)))
	m.From, m.List, m.GroupPrio = bad.ID, antlist.List{}, bad.Prio
}
