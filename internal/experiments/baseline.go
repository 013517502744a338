package experiments

// The comparison algorithms of experiments E8 and E8b: the Max-Min
// d-cluster formation heuristic of Amis, Prakash, Vuong and Huynh
// (INFOCOM 2000) — the clusterhead-based family the paper positions GRP
// against — and a centralized greedy diameter-bounded partitioner used as
// a partition-quality reference. Both are *oracle* algorithms: they see
// the whole graph and recompute from scratch, which is exactly the
// behavior whose membership churn GRP's continuity is designed to avoid.

import (
	"sort"

	"repro/internal/graph"
	"repro/internal/ident"
)

// maxMin computes the Max-Min d-cluster heuristic on g: clusterheads are
// elected by d rounds of flood-max followed by d rounds of flood-min on
// node IDs, and every node joins the cluster of its elected head. Cluster
// radius is at most d, so cluster diameter is at most 2d. Setting
// d = ⌊Dmax/2⌋ makes it satisfy the paper's safety property.
//
// The returned map assigns every node its cluster head; headClusters
// groups them. The simulation here is synchronous and centralized (the
// original is a distributed 2d-round protocol whose outcome this
// reproduces exactly), because the experiments only need its *output* per
// epoch.
func maxMin(g *graph.G, d int) map[ident.NodeID]ident.NodeID {
	if d < 1 {
		d = 1
	}
	nodes := g.Nodes()
	// Floodmax: d rounds of taking the max over the closed neighborhood.
	winner := make(map[ident.NodeID]ident.NodeID, len(nodes))
	for _, v := range nodes {
		winner[v] = v
	}
	floodRounds := func(cmpMax bool, init map[ident.NodeID]ident.NodeID) []map[ident.NodeID]ident.NodeID {
		hist := []map[ident.NodeID]ident.NodeID{cloneHeads(init)}
		cur := cloneHeads(init)
		for r := 0; r < d; r++ {
			next := make(map[ident.NodeID]ident.NodeID, len(nodes))
			for _, v := range nodes {
				best := cur[v]
				for _, u := range g.Neighbors(v) {
					if cmpMax == (cur[u] > best) {
						best = cur[u]
					}
				}
				next[v] = best
			}
			hist = append(hist, next)
			cur = next
		}
		return hist
	}
	maxHist := floodRounds(true, winner)
	afterMax := maxHist[len(maxHist)-1]
	minHist := floodRounds(false, afterMax)
	afterMin := minHist[len(minHist)-1]

	// Clusterhead selection per the paper's rules:
	//  1. a node that received its own ID back in the min phase is a head
	//     (rule 1);
	//  2. else if some node appears in both its max and min phase values,
	//     the smallest such "node pair" is its head (rule 2);
	//  3. else the max-phase winner is its head (rule 3).
	head := make(map[ident.NodeID]ident.NodeID, len(nodes))
	for _, v := range nodes {
		if afterMin[v] == v {
			head[v] = v
			continue
		}
		maxSeen := make(map[ident.NodeID]bool, d)
		for _, h := range maxHist[1:] {
			maxSeen[h[v]] = true
		}
		var pairs []ident.NodeID
		for _, h := range minHist[1:] {
			if maxSeen[h[v]] {
				pairs = append(pairs, h[v])
			}
		}
		if len(pairs) > 0 {
			sort.Slice(pairs, func(i, j int) bool { return pairs[i] < pairs[j] })
			head[v] = pairs[0]
		} else {
			head[v] = afterMax[v]
		}
	}

	// Convergecast repair: a node's head must be reachable within d hops
	// through members of the same cluster; nodes whose head is
	// unreachable re-home to the nearest head (or themselves). This
	// realizes the paper's "joining" phase conservatively so the output
	// always satisfies the radius bound.
	for _, v := range nodes {
		if !reachableViaCluster(g, v, head, d) {
			// Re-home: nearest node that is its own head within d hops,
			// else become a head.
			dist := g.BFSFrom(v, nil)
			bestHead := v
			bestDist := d + 1
			for u, du := range dist {
				if du <= d && du < bestDist && head[u] == u {
					bestHead, bestDist = u, du
				}
			}
			head[v] = bestHead
		}
	}
	// Second pass: heads chosen above might still be in foreign clusters;
	// promote every referenced head to be its own head.
	for _, v := range nodes {
		head[head[v]] = head[v]
	}
	return head
}

// reachableViaCluster reports whether head[v] is within d hops of v using
// only nodes assigned to the same head as relays.
func reachableViaCluster(g *graph.G, v ident.NodeID, head map[ident.NodeID]ident.NodeID, d int) bool {
	target := head[v]
	if target == v {
		return true
	}
	within := make(map[ident.NodeID]bool)
	for u, h := range head {
		if h == target {
			within[u] = true
		}
	}
	within[v] = true
	dist := g.BFSFrom(v, within)
	dt, ok := dist[target]
	return ok && dt <= d
}

// headClusters converts a head assignment into the member sets, keyed by
// head.
func headClusters(head map[ident.NodeID]ident.NodeID) map[ident.NodeID][]ident.NodeID {
	out := make(map[ident.NodeID][]ident.NodeID)
	for v, h := range head {
		out[h] = append(out[h], v)
	}
	for h := range out {
		sort.Slice(out[h], func(i, j int) bool { return out[h][i] < out[h][j] })
	}
	return out
}

// headViews converts a head assignment into per-node views (every member
// sees the full member list), the shape the metrics package consumes.
func headViews(head map[ident.NodeID]ident.NodeID) map[ident.NodeID]map[ident.NodeID]bool {
	clusters := headClusters(head)
	out := make(map[ident.NodeID]map[ident.NodeID]bool, len(head))
	for _, members := range clusters {
		set := make(map[ident.NodeID]bool, len(members))
		for _, v := range members {
			set[v] = true
		}
		for _, v := range members {
			out[v] = set
		}
	}
	return out
}

func cloneHeads(m map[ident.NodeID]ident.NodeID) map[ident.NodeID]ident.NodeID {
	out := make(map[ident.NodeID]ident.NodeID, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// greedyPartition is the centralized quality reference: it grows groups
// greedily — repeatedly take the smallest unassigned node, BFS outward,
// and absorb nodes while the group's induced diameter stays within dmax.
// It is neither optimal nor distributed, but it gives a stable
// "reasonable partition" yardstick for group counts and sizes.
func greedyPartition(g *graph.G, dmax int) map[ident.NodeID]map[ident.NodeID]bool {
	assigned := make(map[ident.NodeID]bool)
	views := make(map[ident.NodeID]map[ident.NodeID]bool)
	for _, seed := range g.Nodes() {
		if assigned[seed] {
			continue
		}
		group := map[ident.NodeID]bool{seed: true}
		assigned[seed] = true
		frontier := []ident.NodeID{seed}
		for len(frontier) > 0 {
			v := frontier[0]
			frontier = frontier[1:]
			nbrs := g.Neighbors(v)
			sort.Slice(nbrs, func(i, j int) bool { return nbrs[i] < nbrs[j] })
			for _, u := range nbrs {
				if assigned[u] {
					continue
				}
				group[u] = true
				if g.InducedDiameter(group) > dmax {
					delete(group, u)
					continue
				}
				assigned[u] = true
				frontier = append(frontier, u)
			}
		}
		for v := range group {
			views[v] = group
		}
	}
	return views
}
