//go:build !race

package flcore

const raceEnabled = false
