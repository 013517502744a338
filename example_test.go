package grp_test

import (
	"fmt"

	grp "repro"
)

// ExampleNewStaticSim shows the minimal simulation loop: build, converge,
// inspect the resulting partition.
func ExampleNewStaticSim() {
	s := grp.NewStaticSim(grp.SimParams{Cfg: grp.Config{Dmax: 3}, Seed: 1}, grp.Line(8))
	_, ok := grp.RunUntilConverged(s, 3, 200, 3)
	fmt.Println("converged:", ok)
	for _, group := range grp.SnapshotOf(s).Groups() {
		fmt.Println(group)
	}
	// Output:
	// converged: true
	// [n1 n2 n3 n4]
	// [n5 n6 n7 n8]
}

// ExampleNewNode drives two protocol endpoints by hand — the integration
// path for a custom transport.
func ExampleNewNode() {
	a := grp.NewNode(1, grp.Config{Dmax: 2})
	b := grp.NewNode(2, grp.Config{Dmax: 2})
	for i := 0; i < 8; i++ {
		ma, mb := a.BuildMessage(), b.BuildMessage()
		a.Receive(mb)
		b.Receive(ma)
		a.Compute()
		b.Compute()
	}
	fmt.Println(a.View())
	fmt.Println(b.View())
	// Output:
	// [n1 n2]
	// [n1 n2]
}

// ExampleSnapshot_Converged checks the specification predicates on a
// hand-built configuration.
func ExampleSnapshot_Converged() {
	s := grp.NewStaticSim(grp.SimParams{Cfg: grp.Config{Dmax: 4}, Seed: 1}, grp.Line(5))
	grp.RunUntilConverged(s, 4, 200, 3)
	snap := grp.SnapshotOf(s)
	fmt.Println("agreement:", snap.Agreement())
	fmt.Println("safety:", snap.Safety(4))
	fmt.Println("maximality:", snap.Maximality(4))
	// Output:
	// agreement: true
	// safety: true
	// maximality: true
}
