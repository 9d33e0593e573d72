package metrics

import (
	"math"
	"testing"
)

func TestTimeToAccuracy(t *testing.T) {
	s := Series{X: []float64{10, 20, 30}, Y: []float64{0.3, 0.6, 0.9}}
	if got := TimeToAccuracy(s, 0.5); got != 20 {
		t.Fatalf("TimeToAccuracy(0.5) = %v", got)
	}
	if got := TimeToAccuracy(s, 0.3); got != 10 {
		t.Fatalf("TimeToAccuracy(0.3) = %v", got)
	}
	if got := TimeToAccuracy(s, 0.95); !math.IsNaN(got) {
		t.Fatalf("unreachable target = %v, want NaN", got)
	}
}

func TestTimeToAccuracySkipsNaN(t *testing.T) {
	s := Series{X: []float64{1, 2}, Y: []float64{math.NaN(), 0.8}}
	if got := TimeToAccuracy(s, 0.5); got != 2 {
		t.Fatalf("got %v", got)
	}
}
