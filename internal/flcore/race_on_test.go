//go:build race

package flcore

// raceEnabled: under the race detector sync.Pool drops a quarter of what is
// put into it, on purpose, so byte-allocation bounds over pooled buffers do
// not hold there.
const raceEnabled = true
