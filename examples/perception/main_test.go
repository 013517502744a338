package main

// Example pins the per-group fused readings at the demo's fixed seed,
// and the stretches and losses of the 40 rounds that follow.
func Example() {
	main()
	// Output:
	// == per-group fused perception ==
	//   group [n1]: fused friction 0.05 over 1 sensors
	//   group [n2 n7 n9]: fused friction 0.57 over 3 sensors
	//   group [n3]: fused friction 0.39 over 4 sensors
	//   group [n4 n6 n11]: fused friction 0.54 over 3 sensors
	//   group [n5]: fused friction 0.54 over 1 sensors
	//   group [n8]: fused friction 0.39 over 4 sensors
	//   group [n10]: fused friction 0.39 over 4 sensors
	//   group [n12]: fused friction 0.49 over 1 sensors
	//
	// over 40 more rounds: 6 topology stretches, 7 membership losses (3 excused by a stretch)
	// losses during ongoing merge negotiations: 4
}
