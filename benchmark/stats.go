package main

import (
	"math"
	"sort"
)

// summary is how every timing metric is reported: the median over the
// measured units, the quartiles beside it, and the unit count.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

// spread is the interquartile distance as a share of the median — the
// quantity the regression bounds are compared against.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return math.Abs((s.Q3 - s.Q1) / s.Median)
}

func summarize(v []float64) summary {
	q1, q3 := quartiles(v)
	return summary{Median: median(v), Q1: q1, Q3: q3, N: len(v)}
}

func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 { return percentile(v, 0.5) }

// percentile interpolates linearly between closest ranks; 0 for no data.
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sorted(v)
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// quartiles follows Python's statistics.quantiles(v, n=4) (the exclusive
// method), because that is what the acceptance check computes spreads with.
func quartiles(v []float64) (q1, q3 float64) {
	n := len(v)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return v[0], v[0]
	}
	s := sorted(v)
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		delta := i*m - j*4
		if j < 1 {
			j, delta = 1, 0
		}
		if j > n-1 {
			j, delta = n-1, 4
		}
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

func sum(v []float64) float64 {
	t := 0.0
	for _, x := range v {
		t += x
	}
	return t
}
