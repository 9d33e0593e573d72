package dataset

import (
	"fmt"
	"math/rand"
	"sort"
)

// PartitionIID splits n sample indices into `clients` equal IID shares.
// Leftover samples go to the first clients, so shares differ by at most one.
func PartitionIID(n, clients int, rng *rand.Rand) [][]int {
	if clients <= 0 {
		panic("dataset: PartitionIID needs clients > 0")
	}
	perm := rng.Perm(n)
	out := make([][]int, clients)
	base, extra := n/clients, n%clients
	off := 0
	for c := 0; c < clients; c++ {
		take := base
		if c < extra {
			take++
		}
		out[c] = append([]int(nil), perm[off:off+take]...)
		off += take
	}
	return out
}

// PartitionByClass implements the paper's non-IID(k) setting: every client
// receives an equal number of samples drawn from exactly k classes
// (Fig. 1b, Fig. 4, Fig. 8 use k = 2, 5, 10). Classes are assigned to
// clients round-robin so all classes stay covered, and each class's pool is
// dealt out without replacement until exhausted, then recycled.
func PartitionByClass(d *Dataset, clients, classesPerClient int, rng *rand.Rand) [][]int {
	k := classesPerClient
	if k < 1 || k > d.NumClasses {
		panic(fmt.Sprintf("dataset: classesPerClient %d outside [1,%d]", k, d.NumClasses))
	}
	byClass := d.ClassIndices()
	for c := range byClass {
		rng.Shuffle(len(byClass[c]), func(i, j int) { byClass[c][i], byClass[c][j] = byClass[c][j], byClass[c][i] })
	}
	cursor := make([]int, d.NumClasses)
	next := func(class int) int {
		pool := byClass[class]
		if len(pool) == 0 {
			panic(fmt.Sprintf("dataset: class %d has no samples", class))
		}
		v := pool[cursor[class]%len(pool)]
		cursor[class]++
		return v
	}

	perClient := d.Len() / clients
	perClass := perClient / k
	if perClass == 0 {
		perClass = 1
	}
	// Assign each client k classes, round-robin over a shuffled class order
	// so coverage is balanced across the population.
	order := rng.Perm(d.NumClasses)
	out := make([][]int, clients)
	ci := 0
	for c := 0; c < clients; c++ {
		classes := make([]int, k)
		for j := 0; j < k; j++ {
			classes[j] = order[ci%d.NumClasses]
			ci++
		}
		idx := make([]int, 0, perClass*k)
		for _, class := range classes {
			for s := 0; s < perClass; s++ {
				idx = append(idx, next(class))
			}
		}
		out[c] = idx
	}
	return out
}

// QuantityFractions is the paper's data-quantity heterogeneity setting: the
// five resource groups hold 10%, 15%, 20%, 25% and 30% of the total
// training data (Section 5.1).
var QuantityFractions = []float64{0.10, 0.15, 0.20, 0.25, 0.30}

// PartitionQuantity splits n samples across clients organized in
// len(groupFracs) equal-size groups, where group g collectively receives
// fraction groupFracs[g] of the data, split evenly within the group.
// Fractions must sum to approximately 1.
func PartitionQuantity(n, clients int, groupFracs []float64, rng *rand.Rand) [][]int {
	g := len(groupFracs)
	if g == 0 || clients%g != 0 {
		panic(fmt.Sprintf("dataset: %d clients not divisible into %d groups", clients, g))
	}
	sum := 0.0
	for _, f := range groupFracs {
		sum += f
	}
	if sum < 0.99 || sum > 1.01 {
		panic(fmt.Sprintf("dataset: group fractions sum to %v, want 1", sum))
	}
	perGroup := clients / g
	perm := rng.Perm(n)
	out := make([][]int, clients)
	off := 0
	for gi, f := range groupFracs {
		groupTotal := int(f * float64(n))
		per := groupTotal / perGroup
		for c := 0; c < perGroup; c++ {
			client := gi*perGroup + c
			hi := off + per
			if hi > n {
				hi = n
			}
			out[client] = append([]int(nil), perm[off:hi]...)
			off = hi
		}
	}
	return out
}

// PartitionClassQuantity combines non-IID(k) class skew with the group
// quantity fractions: client sizes follow PartitionQuantity while class
// composition follows PartitionByClass. This is the paper's "Combine"
// scenario (resource + data-quantity + non-IID heterogeneity).
func PartitionClassQuantity(d *Dataset, clients, classesPerClient int, groupFracs []float64, rng *rand.Rand) [][]int {
	g := len(groupFracs)
	if g == 0 || clients%g != 0 {
		panic(fmt.Sprintf("dataset: %d clients not divisible into %d groups", clients, g))
	}
	k := classesPerClient
	byClass := d.ClassIndices()
	for c := range byClass {
		rng.Shuffle(len(byClass[c]), func(i, j int) { byClass[c][i], byClass[c][j] = byClass[c][j], byClass[c][i] })
	}
	cursor := make([]int, d.NumClasses)
	next := func(class int) int {
		pool := byClass[class]
		v := pool[cursor[class]%len(pool)]
		cursor[class]++
		return v
	}
	perGroup := clients / g
	order := rng.Perm(d.NumClasses)
	out := make([][]int, clients)
	ci := 0
	for gi, f := range groupFracs {
		groupTotal := int(f * float64(d.Len()))
		per := groupTotal / perGroup
		perClass := per / k
		if perClass == 0 {
			perClass = 1
		}
		for c := 0; c < perGroup; c++ {
			client := gi*perGroup + c
			idx := make([]int, 0, perClass*k)
			for j := 0; j < k; j++ {
				class := order[ci%d.NumClasses]
				ci++
				for s := 0; s < perClass; s++ {
					idx = append(idx, next(class))
				}
			}
			out[client] = idx
		}
	}
	return out
}

// Classes returns the sorted distinct classes present in rows idx of d.
func Classes(d *Dataset, idx []int) []int {
	seen := make(map[int]bool)
	for _, i := range idx {
		seen[d.Y[i]] = true
	}
	out := make([]int, 0, len(seen))
	for c := range seen {
		out = append(out, c)
	}
	sort.Ints(out)
	return out
}

// TestSubsetForClasses returns up to max rows of test whose labels fall in
// classes. The TiFL adaptive scheduler evaluates each tier on test data
// matching that tier's class composition (TestData_t in Algorithm 2).
func TestSubsetForClasses(test *Dataset, classes []int, max int, rng *rand.Rand) *Dataset {
	want := make(map[int]bool, len(classes))
	for _, c := range classes {
		want[c] = true
	}
	var idx []int
	for i, y := range test.Y {
		if want[y] {
			idx = append(idx, i)
		}
	}
	rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
	if max > 0 && len(idx) > max {
		idx = idx[:max]
	}
	return test.Subset(idx)
}
