package main

// Example pins the two clusters' convergence and the split that
// cutting a link inside a group causes.
func Example() {
	main()
	// Output:
	// == converging from boot ==
	// converged=true after 27 rounds
	//   group: [n1 n2 n3 n4]
	//   group: [n5 n6 n7 n8]
	// node n2's view: [n1 n2 n3 n4]
	//
	// == cutting the 2-3 link (inside a group) ==
	// ΠT held: false (false: the cut stretched a group, excusing the split)
	//   group: [n1 n2]
	//   group: [n3 n4]
	//   group: [n5 n6 n7 n8]
	// re-converged: true
}
