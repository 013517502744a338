package antlist

import "repro/internal/ident"

// The pre-arena nested representation and its copy-on-write operators,
// retained verbatim as the differential oracle for the flat arena List and
// the Builder. FuzzAntBuilder and the conformance suite replay every fold
// step on a RefList and assert the arena result is identical; nothing here
// is reachable from production paths.

// RefList is the nested slice-of-sets ancestor list the package used
// before the arena rewrite: position i is its own Set slice.
type RefList []Set

// Ref converts the flat list into the nested reference shape (deep copy).
func (l List) Ref() RefList {
	if l.Len() == 0 {
		return nil
	}
	out := make(RefList, l.Len())
	for i := range out {
		out[i] = l.At(i).Clone()
	}
	return out
}

// List converts the nested reference back into the flat arena shape.
func (r RefList) List() List { return FromSets(r...) }

// At returns the set at position i, or nil if out of range.
func (r RefList) At(i int) Set {
	if i < 0 || i >= len(r) {
		return nil
	}
	return r[i]
}

// NodeCount returns the total number of entries across all positions.
func (r RefList) NodeCount() int {
	n := 0
	for _, s := range r {
		n += len(s)
	}
	return n
}

// Normalize is the verbatim pre-arena normalization: each node kept only
// at its smallest position, trailing empty sets trimmed, interior empty
// sets preserved.
func (r RefList) Normalize() RefList {
	if r.NodeCount() <= 32 {
		dirty := false
	scan:
		for i, s := range r {
			for _, e := range s {
				for _, prev := range r[:i] {
					if prev.Has(e.ID) {
						dirty = true
						break scan
					}
				}
			}
		}
		if !dirty {
			return refTrimTail(r)
		}
		out := make(RefList, 0, len(r))
		for _, s := range r {
			kept := out
			out = append(out, s.Filter(func(e ident.Entry) bool {
				for _, prev := range kept {
					if prev.Has(e.ID) {
						return false
					}
				}
				return true
			}))
		}
		return refTrimTail(out)
	}
	out := make(RefList, 0, len(r))
	seen := make(map[ident.NodeID]bool, r.NodeCount())
	for _, s := range r {
		out = append(out, s.Filter(func(e ident.Entry) bool {
			if seen[e.ID] {
				return false
			}
			seen[e.ID] = true
			return true
		}))
	}
	return refTrimTail(out)
}

// refTrimTail drops trailing empty sets, mapping the all-empty list to nil.
func refTrimTail(r RefList) RefList {
	for len(r) > 0 && len(r[len(r)-1]) == 0 {
		r = r[:len(r)-1]
	}
	if len(r) == 0 {
		return nil
	}
	return r
}

// Merge is the verbatim pre-arena ⊕: position-wise union, then Normalize.
func (r RefList) Merge(o RefList) RefList {
	n := len(r)
	if len(o) > n {
		n = len(o)
	}
	out := make(RefList, n)
	for i := 0; i < n; i++ {
		out[i] = r.At(i).Union(o.At(i))
	}
	return out.Normalize()
}

// Ant is the verbatim pre-arena r-operator fold: ant(r, o) = r ⊕ r(o),
// merging with the shift as an index offset.
func (r RefList) Ant(o RefList) RefList {
	n := len(r)
	if len(o)+1 > n {
		n = len(o) + 1
	}
	out := make(RefList, n)
	out[0] = r.At(0)
	for i := 1; i < n; i++ {
		out[i] = r.At(i).Union(o.At(i - 1))
	}
	return out.Normalize()
}

// Truncate is the verbatim pre-arena cut to at most n positions.
func (r RefList) Truncate(n int) RefList {
	if len(r) <= n {
		return r
	}
	out := make(RefList, n)
	copy(out, r[:n])
	return out.Normalize()
}
