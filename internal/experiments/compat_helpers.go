package experiments

import (
	"repro/internal/antlist"
	"repro/internal/ident"
	"repro/internal/priority"
)

func plain(id ident.NodeID) ident.Entry { return ident.Plain(id) }

func prio(id ident.NodeID) priority.P { return priority.New(id) }

// pathList builds the ancestor list of the head of a path group: owner at
// position 0, then one node per depth (IDs base+1, base+2, ...).
func pathList(owner ident.NodeID, depth int, base uint32) antlist.List {
	sets := []antlist.Set{antlist.NewSet(plain(owner))}
	for k := 1; k <= depth; k++ {
		sets = append(sets, antlist.NewSet(plain(ident.NodeID(base+uint32(k)))))
	}
	return antlist.FromSets(sets...)
}

// pathListAndView builds a path group's list plus the matching full view.
func pathListAndView(owner ident.NodeID, depth int, base uint32) (antlist.List, map[ident.NodeID]bool) {
	l := pathList(owner, depth, base)
	view := make(map[ident.NodeID]bool, depth+1)
	for _, u := range l.IDs() {
		view[u] = true
	}
	return l, view
}
