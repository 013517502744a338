package main

// Example pins the link map the building grid shapes and the
// street-aligned groups that form over it.
func Example() {
	main()
	// Output:
	// == link map shaped by the buildings ==
	//   n1 hears [n2]
	//   n2 hears [n1]
	//   n3 hears [n4]
	//   n4 hears [n3]
	//   n5 hears [n6]
	//   n6 hears [n5]
	//   n7 hears [n8]
	//   n8 hears [n7]
	//
	// converged=true after 5 rounds
	//   group: [n1 n2]
	//   group: [n3 n4]
	//   group: [n5 n6]
	//   group: [n7 n8]
	//
	// vehicles group along streets; the buildings keep diagonal
	// neighbors apart even though they are geometrically close.
}
