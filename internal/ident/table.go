package ident

import (
	"iter"
	"slices"
)

const pageBits, pageMask = 12, 1<<12 - 1 // a Table page spans 4 096 IDs

// Table maps NodeIDs to values of T in a paged array indexed by the ID
// itself: a directory with one page pointer per 4 096 IDs, up to the
// largest ID ever set, and a page for each range that holds a key, sized
// lazily to its highest used offset. A read is a directory load and a
// page load; nothing hashes. The zero value is an empty table; Ref, Get,
// Has, All and Clone also work on a nil *Table, and reads past the
// directory (fabricated IDs, say) grow nothing. All iterates in ascending
// ID order. Concurrent reads are safe, writes are not.
type Table[T any] struct {
	dir []*page[T] // page p holds IDs [p<<pageBits, (p+1)<<pageBits)
	n   int
}

type page[T any] struct {
	slots []slot[T] // by offset, up to the highest offset set so far
	n     int       // present keys: an emptied page is dropped
}

type slot[T any] struct {
	v  T
	ok bool
}

// Ref returns a pointer to id's value, or nil when id is absent. The
// pointer is valid until the next Set or Delete.
func (t *Table[T]) Ref(id NodeID) *T {
	if t != nil && uint(id>>pageBits) < uint(len(t.dir)) {
		if pg := t.dir[id>>pageBits]; pg != nil && uint(id&pageMask) < uint(len(pg.slots)) {
			if s := &pg.slots[id&pageMask]; s.ok {
				return &s.v
			}
		}
	}
	return nil
}

// Get returns id's value and whether id is present (the zero T if not).
func (t *Table[T]) Get(id NodeID) (v T, ok bool) {
	if r := t.Ref(id); r != nil {
		v, ok = *r, true
	}
	return v, ok
}

// Has reports whether id is present.
func (t *Table[T]) Has(id NodeID) bool { return t.Ref(id) != nil }

// Len returns the number of present IDs.
func (t *Table[T]) Len() int { return t.n }

// Set stores v under id.
func (t *Table[T]) Set(id NodeID, v T) {
	p, o := int(id>>pageBits), int(id&pageMask)
	if p >= len(t.dir) {
		t.dir = append(t.dir, make([]*page[T], p+1-len(t.dir))...)
	}
	pg := t.dir[p]
	if pg == nil {
		pg = new(page[T])
		t.dir[p] = pg
	}
	if o >= len(pg.slots) {
		pg.slots = slices.Concat(pg.slots, make([]slot[T], min(max(o+1, 2*len(pg.slots)), pageMask+1)-len(pg.slots)))
	}
	s := &pg.slots[o]
	if !s.ok {
		s.ok = true
		pg.n++
		t.n++
	}
	s.v = v
}

// Delete removes id, if present.
func (t *Table[T]) Delete(id NodeID) {
	if t.Ref(id) == nil {
		return
	}
	pg := t.dir[id>>pageBits]
	pg.slots[id&pageMask] = slot[T]{}
	t.n--
	if pg.n--; pg.n == 0 {
		t.dir[id>>pageBits] = nil
	}
}

// All iterates the present IDs and their values in ascending ID order.
// The table must not be written during the iteration.
func (t *Table[T]) All() iter.Seq2[NodeID, T] {
	return func(yield func(NodeID, T) bool) {
		for p := 0; t != nil && p < len(t.dir); p++ {
			for o := 0; t.dir[p] != nil && o < len(t.dir[p].slots); o++ {
				if s := &t.dir[p].slots[o]; s.ok && !yield(NodeID(p<<pageBits|o), s.v) {
					return
				}
			}
		}
	}
}

// Clone returns a copy of the table (values copied as by assignment), or
// nil for a nil table.
func (t *Table[T]) Clone() *Table[T] {
	if t == nil {
		return nil
	}
	c := &Table[T]{dir: make([]*page[T], len(t.dir)), n: t.n}
	for p, pg := range t.dir {
		if pg != nil {
			c.dir[p] = &page[T]{slots: slices.Clone(pg.slots), n: pg.n}
		}
	}
	return c
}
