package nn

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/tensor"
)

// Allocation-regression tests for the steady-state training hot path: after
// a warm-up batch has sized every cached buffer, repeated batches of the
// same shape must not allocate. Problem sizes stay under the matmul
// parallelism threshold so goroutine spawning doesn't count against the
// layers.

func denseBatch(rng *rand.Rand, n, in int) *tensor.Tensor {
	return tensor.RandNormal(rng, 0, 1, n, in)
}

func TestDenseSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := NewDense(rng, 16, 8)
	d.setWorkspace(NewWorkspace())
	x := denseBatch(rng, 4, 16)
	grad := tensor.RandNormal(rng, 0, 1, 4, 8)
	d.Forward(x, true)
	d.Backward(grad)
	avg := testing.AllocsPerRun(50, func() {
		d.Forward(x, true)
		d.Backward(grad)
	})
	if avg != 0 {
		t.Fatalf("Dense forward+backward allocates %v per batch at steady state, want 0", avg)
	}
}

func TestConv2DSteadyStateAllocs(t *testing.T) {
	for _, nhwc := range []bool{false, true} {
		rng := rand.New(rand.NewSource(2))
		c := NewConv2D(rng, 2, 4, 3, 3, 1, 1)
		c.nhwcIn = nhwc
		c.setWorkspace(NewWorkspace())
		x := tensor.RandNormal(rng, 0, 1, 2, 2, 8, 8)
		if nhwc {
			x = tensor.RandNormal(rng, 0, 1, 2, 8, 8, 2)
		}
		grad := tensor.RandNormal(rng, 0, 1, 2, 8, 8, 4)
		c.Forward(x, true)
		c.Backward(grad)
		avg := testing.AllocsPerRun(50, func() {
			c.Forward(x, true)
			c.Backward(grad)
		})
		if avg != 0 {
			t.Fatalf("Conv2D (nhwcIn=%v) forward+backward allocates %v per batch at steady state, want 0", nhwc, avg)
		}
	}
}

func TestModelTrainBatchSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := NewModel(
		NewConv2D(rng, 1, 2, 3, 3, 1, 1),
		NewReLU(),
		NewMaxPool(2, 2),
		NewDropout(rng, 0.25),
		NewFlatten(),
		NewDense(rng, 2*4*4, 8),
		NewReLU(),
		NewDense(rng, 8, 3),
	)
	m.SetWorkspace(NewWorkspace())
	x := tensor.RandNormal(rng, 0, 1, 4, 1, 8, 8)
	labels := []int{0, 1, 2, 1}
	opt := NewSGD(0.01, 0.9)
	m.TrainBatch(x, labels, opt) // warm up caches and optimizer state
	avg := testing.AllocsPerRun(50, func() {
		m.TrainBatch(x, labels, opt)
	})
	if avg != 0 {
		t.Fatalf("Model.TrainBatch allocates %v per batch at steady state, want 0", avg)
	}
}

// TestEvaluateSteadyStateAllocsBounded holds Evaluate's steady state to
// no allocation: an MLP's batches are views of the caller's samples, and
// the paper CNN forwards evalBlock samples at a time, so an EvalBatch of
// 100 leaves its conv scratch (im2col rows, products) no larger than an
// EvalBatch of 10 does. testing.AllocsPerRun runs at GOMAXPROCS 1, where
// the CNN's products above the parallel threshold run on the caller
// without building the closure they split across cores with.
func TestEvaluateSteadyStateAllocsBounded(t *testing.T) {
	t.Run("mlp", func(t *testing.T) {
		rng := rand.New(rand.NewSource(4))
		m := NewMLP(rng, 12, []int{8}, 4, 0)
		m.SetWorkspace(NewWorkspace())
		x := tensor.RandNormal(rng, 0, 1, 32, 12)
		labels := make([]int, 32)
		for i := range labels {
			labels[i] = rng.Intn(4)
		}
		m.Evaluate(x, labels, 8)
		if avg := testing.AllocsPerRun(20, func() { m.Evaluate(x, labels, 8) }); avg != 0 {
			t.Fatalf("Model.Evaluate allocates %v per eval, want 0", avg)
		}
	})
	t.Run("cnn", func(t *testing.T) {
		rng := rand.New(rand.NewSource(5))
		m := NewPaperMNISTCNN(rng, 14, 14, 1, 10)
		m.SetWorkspace(NewWorkspace())
		x := tensor.RandNormal(rng, 0, 1, 100, 1, 14, 14)
		labels := make([]int, 100)
		for i := range labels {
			labels[i] = rng.Intn(10)
		}
		scratch := func() (caps []int) {
			for _, l := range m.Layers {
				if c, ok := l.(*Conv2D); ok {
					caps = append(caps, cap(c.cols.Data), cap(c.flat.Data))
				}
			}
			return caps
		}
		m.Evaluate(x, labels, 10)
		warm := scratch()
		m.Evaluate(x, labels, 100)
		for i, c := range scratch() {
			if c > warm[i] {
				t.Fatalf("conv scratch %d holds %d values after EvalBatch 100, %d after EvalBatch 10", i, c, warm[i])
			}
		}
		if avg := testing.AllocsPerRun(5, func() { m.Evaluate(x, labels, 100) }); avg != 0 {
			t.Fatalf("Model.Evaluate allocates %v per eval at GOMAXPROCS 1, want 0", avg)
		}
	})
}

// Concurrent per-goroutine workspaces share nothing; one shared tensor pool
// under them must be race-free. Run with -race.
func TestConcurrentWorkspacesRace(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			ws := NewWorkspace()
			m := NewMLP(rng, 10, []int{6}, 3, 0.1)
			m.SetWorkspace(ws)
			x := tensor.RandNormal(rng, 0, 1, 5, 10)
			labels := []int{0, 1, 2, 0, 1}
			opt := NewSGD(0.05, 0.9)
			for it := 0; it < 50; it++ {
				m.TrainBatch(x, labels, opt)
			}
		}(g)
	}
	wg.Wait()
}

// Replica.Acquire must reproduce a fresh factory build bit-exactly: same
// weights after SetWeightsVector, same rng stream for dropout and shuffles.
func TestReplicaMatchesFreshBuild(t *testing.T) {
	factory := func(rng *rand.Rand) *Model {
		return NewMLP(rng, 6, []int{5}, 3, 0.3)
	}
	rep := NewReplica(factory)
	x := tensor.RandNormal(rand.New(rand.NewSource(99)), 0, 1, 4, 6)
	labels := []int{0, 1, 2, 0}
	global := make([]float64, NewMLP(rand.New(rand.NewSource(0)), 6, []int{5}, 3, 0.3).NumParams())
	for i := range global {
		global[i] = math.Sin(float64(i))
	}
	for trial, seed := range []int64{42, 7, 42, -3, 7} {
		// Reference: the historical fresh-build path.
		refRng := rand.New(rand.NewSource(seed))
		ref := factory(refRng)
		ref.SetWeightsVector(global)
		refLoss := ref.TrainBatch(x, labels, NewSGD(0.1, 0))
		refDraw := refRng.Float64()

		m, rng := rep.Acquire(seed)
		m.SetWeightsVector(global)
		loss := m.TrainBatch(x, labels, NewSGD(0.1, 0))
		draw := rng.Float64()

		if math.Float64bits(loss) != math.Float64bits(refLoss) {
			t.Fatalf("trial %d (seed %d): replica loss %v, fresh build %v", trial, seed, loss, refLoss)
		}
		if math.Float64bits(draw) != math.Float64bits(refDraw) {
			t.Fatalf("trial %d (seed %d): replica rng draw %v, fresh build %v", trial, seed, draw, refDraw)
		}
		refW, w := ref.WeightsVector(), m.WeightsVector()
		for i := range refW {
			if math.Float64bits(refW[i]) != math.Float64bits(w[i]) {
				t.Fatalf("trial %d (seed %d): weight %d = %v, fresh build %v", trial, seed, i, w[i], refW[i])
			}
		}
	}
}

func TestReplicaNilFactoryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("nil factory must panic")
		}
	}()
	NewReplica(nil)
}

// Optimizer state drawn from a pool must not change results and must be
// returnable.
func TestPooledOptimizerStateBitEqual(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	p := tensor.RandNormal(rng, 0, 1, 4, 4)
	g := tensor.RandNormal(rng, 0, 1, 4, 4)
	ref := p.Clone()
	refG := g.Clone()

	plain := NewRMSprop(0.01, 0.995)
	plain.Step([]*tensor.Tensor{ref}, []*tensor.Tensor{refG})
	plain.Step([]*tensor.Tensor{ref}, []*tensor.Tensor{refG})

	var pool tensor.Pool
	pooled := NewRMSprop(0.01, 0.995)
	pooled.AttachStatePool(&pool)
	pooled.Step([]*tensor.Tensor{p}, []*tensor.Tensor{g})
	pooled.Step([]*tensor.Tensor{p}, []*tensor.Tensor{g})
	pooled.ReleaseState()

	for i := range ref.Data {
		if math.Float64bits(ref.Data[i]) != math.Float64bits(p.Data[i]) {
			t.Fatalf("pooled RMSprop diverged at %d: %v vs %v", i, p.Data[i], ref.Data[i])
		}
	}
}

// The wire codec's buffer-reusing forms allocate nothing once the caller's
// buffers have the capacity, which is what lets a worker encode and decode
// one vector per round in place; the finiteness verdict comes out of the
// same pass.
func TestWeightsCodecIntoAllocs(t *testing.T) {
	w := make([]float64, 5000)
	for i := range w {
		w[i] = float64(i) - 2500.5
	}
	buf, dst := EncodeWeights(w), make([]float64, len(w))
	for what, f := range map[string]func(){
		"AppendWeights":     func() { buf = AppendWeights(buf[:0], w) },
		"DecodeWeightsInto": func() { dst, _, _ = DecodeWeightsInto(dst, buf) },
	} {
		if got := testing.AllocsPerRun(20, f); got != 0 {
			t.Errorf("%s allocates %v times per call with sufficient capacity, want 0", what, got)
		}
	}
	for i, v := range dst {
		if math.Float64bits(v) != math.Float64bits(w[i]) {
			t.Fatalf("round trip changed weights[%d]: %v, want %v", i, v, w[i])
		}
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		w[17] = bad
		if _, finite, err := DecodeWeightsInto(dst, EncodeWeights(w)); err != nil || finite {
			t.Errorf("a vector holding %v decoded as (finite %v, err %v), want not finite and no error", bad, finite, err)
		}
	}
	w[17] = math.MaxFloat64
	if _, finite, err := DecodeWeightsInto(dst, EncodeWeights(w)); err != nil || !finite {
		t.Errorf("a finite vector decoded as (finite %v, err %v)", finite, err)
	}
}
