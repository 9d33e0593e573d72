//go:build race

package tensor

// raceEnabled: the race detector allocates on its own, so allocation
// counts taken under it prove nothing.
const raceEnabled = true
