package main

// Example pins the convoy's group changes at its fixed seed and the
// count of membership losses the best-effort contract leaves unexcused.
func Example() {
	main()
	// Output:
	// round   1: [[n1] [n2] [n3] [n4] [n5]]
	// round   6: [[n1 n2] [n3] [n4] [n5]]
	// round   9: [[n1 n2 n3] [n4 n5]]
	// round  34: [[n1] [n2] [n3] [n4 n5]]
	// round  35: [[n1] [n2 n3] [n4 n5]]
	// round  43: [[n1] [n2 n3 n4 n5]]
	//
	// topology stretches (ΠT breaks): 2
	// membership losses: 1, of which excused by a stretch: 1
	// unexcused losses (the best-effort contract): 0
}
