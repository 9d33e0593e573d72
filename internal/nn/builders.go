package nn

import "math/rand"

// NewMLP builds a multilayer perceptron: in → hidden... (ReLU) → classes,
// with optional dropout before the final layer. This is the model the
// experiment harness trains on the synthetic feature datasets; its FedAvg
// dynamics (convergence per round, sensitivity to class-skewed clients) are
// what the paper's figures measure.
func NewMLP(rng *rand.Rand, in int, hidden []int, classes int, dropout float64) *Model {
	var layers []Layer
	prev := in
	for _, h := range hidden {
		layers = append(layers, NewDense(rng, prev, h), NewReLU())
		prev = h
	}
	if dropout > 0 {
		layers = append(layers, NewDropout(rng, dropout))
	}
	layers = append(layers, NewDense(rng, prev, classes))
	return NewModel(layers...)
}

// NewLogistic builds a multinomial logistic-regression model (single dense
// layer); useful as the cheapest client model for very large populations.
func NewLogistic(rng *rand.Rand, in, classes int) *Model {
	return NewModel(NewDense(rng, in, classes))
}

// NewPaperMNISTCNN builds the CNN the paper trains on MNIST and
// Fashion-MNIST: 3×3 conv ×32 (ReLU), 3×3 conv ×64 (ReLU), 2×2 max-pool,
// dropout 0.25, dense 128 (ReLU), dropout 0.5, dense `classes`.
// Input shape is (N, channels, h, w).
func NewPaperMNISTCNN(rng *rand.Rand, h, w, channels, classes int) *Model {
	oh := h - 2 - 2 // two valid 3×3 convs
	ow := w - 2 - 2
	ph, pw := oh/2, ow/2
	return NewModel(
		NewConv2D(rng, channels, 32, 3, 3, 1, 0),
		NewReLU(),
		NewConv2D(rng, 32, 64, 3, 3, 1, 0),
		NewReLU(),
		NewMaxPool(2, 2),
		NewDropout(rng, 0.25),
		NewFlatten(),
		NewDense(rng, 64*ph*pw, 128),
		NewReLU(),
		NewDropout(rng, 0.5),
		NewDense(rng, 128, classes),
	)
}
