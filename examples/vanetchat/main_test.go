package main

// Example pins the demo's rooms at its fixed seed, before and after
// vehicle 5 leaves.
func Example() {
	main()
	// Output:
	// == waiting for the platoon's chat rooms to form ==
	//   converged=true after 14 rounds
	//   vehicle n1 is in room [n1 n2 n3]
	//   vehicle n2 is in room [n1 n2 n3]
	//   vehicle n3 is in room [n1 n2 n3]
	//   vehicle n4 is in room [n4 n5]
	//   vehicle n5 is in room [n4 n5]
	//
	// == chatting ==
	//   n2 → [n1 n2 n3]: "anyone up ahead?"
	//   n4 → [n4 n5]: "traffic jam at the bridge"
	//
	// == vehicle 5 takes the exit ==
	//   converged=true after 2 rounds
	//   vehicle n1 is in room [n1 n2 n3]
	//   vehicle n2 is in room [n1 n2 n3]
	//   vehicle n3 is in room [n1 n2 n3]
	//   vehicle n4 is in room [n4]
	//   n4 → [n4]: "looks like n5 left"
}
