package metrics

import "math"

// TimeToAccuracy returns the first x position (round or simulated second,
// depending on the series' axis) at which the series reaches the target
// accuracy, or NaN if it never does. The paper's wall-clock comparisons
// (Figs. 3e/f, 6e/f) reduce to exactly this statistic: how long each
// policy needs to hit a given accuracy.
func TimeToAccuracy(s Series, target float64) float64 {
	for i, y := range s.Y {
		if !math.IsNaN(y) && y >= target {
			return s.X[i]
		}
	}
	return math.NaN()
}
