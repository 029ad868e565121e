// Package ops provides the operator catalog for the compute-graph IR: each
// op type defines its algorithmic FLOPs and bytes (paper §2.1), a Builder
// that constructs graphs with symbolic shape inference, and Backprop, which
// emits explicit backward ops (gradients flow to both weights and
// activations, and matrix-op backprop costs ~2x the forward FLOPs, §2.1).
package ops

import (
	"fmt"

	"catamount/internal/graph"
	"catamount/internal/symbolic"
)

func numel(t *graph.Tensor) symbolic.Expr { return t.NumElements() }

func out0(n *graph.Node) *graph.Tensor { return n.Outputs[0] }

// ---------------------------------------------------------------------------
// Dense linear algebra

// MatMul multiplies A[m,k] by B[k,n] into Y[m,n], with optional transposes.
type MatMul struct {
	TransA, TransB bool
}

// Kind implements graph.Op.
func (o MatMul) Kind() string { return "matmul" }

// FLOPs implements graph.Op: 2·m·n·k multiply-accumulates.
func (o MatMul) FLOPs(n *graph.Node) symbolic.Expr {
	y := out0(n)
	a := n.Inputs[0]
	kIdx := 1
	if o.TransA {
		kIdx = 0
	}
	return graph.Product(n, symbolic.C(2), y.Shape.Dim(0), y.Shape.Dim(1), a.Shape.Dim(kIdx))
}

// Bytes implements graph.Op.
func (o MatMul) Bytes(n *graph.Node) symbolic.Expr { return graph.IOBytes(n) }

// BatchedMatMul multiplies A[b,m,k] by B[b,k,n] into Y[b,m,n].
type BatchedMatMul struct {
	TransA, TransB bool
}

// Kind implements graph.Op.
func (o BatchedMatMul) Kind() string { return "batched-matmul" }

// FLOPs implements graph.Op.
func (o BatchedMatMul) FLOPs(n *graph.Node) symbolic.Expr {
	y := out0(n)
	a := n.Inputs[0]
	kIdx := 2
	if o.TransA {
		kIdx = 1
	}
	return graph.Product(n, symbolic.C(2), y.Shape.Dim(0), y.Shape.Dim(1), y.Shape.Dim(2), a.Shape.Dim(kIdx))
}

// Bytes implements graph.Op.
func (o BatchedMatMul) Bytes(n *graph.Node) symbolic.Expr { return graph.IOBytes(n) }

// ---------------------------------------------------------------------------
// Convolution

// Conv2D convolves X[n,h,w,c] with W[r,s,c,k] into Y[n,h',w',k] (NHWC,
// same-padding, integer strides).
type Conv2D struct {
	StrideH, StrideW int
}

// Kind implements graph.Op.
func (o Conv2D) Kind() string { return "conv2d" }

// FLOPs implements graph.Op: 2·n·h'·w'·r·s·c·k.
func (o Conv2D) FLOPs(n *graph.Node) symbolic.Expr {
	y := out0(n)
	w := n.Inputs[1]
	return graph.Product(n, symbolic.C(2),
		y.Shape.Dim(0), y.Shape.Dim(1), y.Shape.Dim(2), y.Shape.Dim(3),
		w.Shape.Dim(0), w.Shape.Dim(1), w.Shape.Dim(2))
}

// Bytes implements graph.Op.
func (o Conv2D) Bytes(n *graph.Node) symbolic.Expr { return graph.IOBytes(n) }

// Conv2DGradInput computes dX from (W, dY); same FLOPs as the forward conv.
type Conv2DGradInput struct {
	StrideH, StrideW int
}

// Kind implements graph.Op.
func (o Conv2DGradInput) Kind() string { return "conv2d-grad-input" }

// FLOPs implements graph.Op.
func (o Conv2DGradInput) FLOPs(n *graph.Node) symbolic.Expr {
	// inputs: W[r,s,c,k], dY[n,h',w',k]; output dX[n,h,w,c].
	w := n.Inputs[0]
	dy := n.Inputs[1]
	return graph.Product(n, symbolic.C(2),
		dy.Shape.Dim(0), dy.Shape.Dim(1), dy.Shape.Dim(2), dy.Shape.Dim(3),
		w.Shape.Dim(0), w.Shape.Dim(1), w.Shape.Dim(2))
}

// Bytes implements graph.Op.
func (o Conv2DGradInput) Bytes(n *graph.Node) symbolic.Expr { return graph.IOBytes(n) }

// Conv2DGradWeight computes dW from (X, dY); same FLOPs as the forward conv.
type Conv2DGradWeight struct {
	StrideH, StrideW int
}

// Kind implements graph.Op.
func (o Conv2DGradWeight) Kind() string { return "conv2d-grad-weight" }

// FLOPs implements graph.Op.
func (o Conv2DGradWeight) FLOPs(n *graph.Node) symbolic.Expr {
	dy := n.Inputs[1]
	dw := out0(n)
	return graph.Product(n, symbolic.C(2),
		dy.Shape.Dim(0), dy.Shape.Dim(1), dy.Shape.Dim(2), dy.Shape.Dim(3),
		dw.Shape.Dim(0), dw.Shape.Dim(1), dw.Shape.Dim(2))
}

// Bytes implements graph.Op.
func (o Conv2DGradWeight) Bytes(n *graph.Node) symbolic.Expr { return graph.IOBytes(n) }

// ---------------------------------------------------------------------------
// Pointwise ops

// Unary applies an elementwise function with a fixed FLOP cost per element.
type Unary struct {
	Fn           string
	FlopsPerElem float64
	// Factor is the multiplier for the "scale" function (0 means 1).
	Factor float64
}

// Standard unary op costs (algorithmic FLOPs per element).
var (
	ReLUOp    = Unary{Fn: "relu", FlopsPerElem: 1}
	SigmoidOp = Unary{Fn: "sigmoid", FlopsPerElem: 4}
	TanhOp    = Unary{Fn: "tanh", FlopsPerElem: 4}
	ScaleOp   = Unary{Fn: "scale", FlopsPerElem: 1, Factor: 1}
)

// Kind implements graph.Op.
func (o Unary) Kind() string { return o.Fn }

// FLOPs implements graph.Op.
func (o Unary) FLOPs(n *graph.Node) symbolic.Expr {
	return graph.Product(n, symbolic.C(o.FlopsPerElem), numel(out0(n)))
}

// Bytes implements graph.Op.
func (o Unary) Bytes(n *graph.Node) symbolic.Expr { return graph.IOBytes(n) }

// UnaryGrad computes dX = dY ⊙ f'(act) for a unary op, consuming the saved
// activation.
type UnaryGrad struct {
	Fn           string
	FlopsPerElem float64
	// Factor mirrors Unary.Factor for the "scale" function.
	Factor float64
}

// Kind implements graph.Op.
func (o UnaryGrad) Kind() string { return o.Fn + "-grad" }

// FLOPs implements graph.Op.
func (o UnaryGrad) FLOPs(n *graph.Node) symbolic.Expr {
	return graph.Product(n, symbolic.C(o.FlopsPerElem), numel(out0(n)))
}

// Bytes implements graph.Op.
func (o UnaryGrad) Bytes(n *graph.Node) symbolic.Expr { return graph.IOBytes(n) }

// Binary applies an elementwise binary function to same-shape operands.
type Binary struct {
	Fn string // "add", "sub", "mul"
}

// Kind implements graph.Op.
func (o Binary) Kind() string { return o.Fn }

// FLOPs implements graph.Op.
func (o Binary) FLOPs(n *graph.Node) symbolic.Expr { return numel(out0(n)) }

// Bytes implements graph.Op.
func (o Binary) Bytes(n *graph.Node) symbolic.Expr { return graph.IOBytes(n) }

// BiasAdd adds a rank-1 bias along the last axis of X.
type BiasAdd struct{}

// Kind implements graph.Op.
func (o BiasAdd) Kind() string { return "bias-add" }

// FLOPs implements graph.Op.
func (o BiasAdd) FLOPs(n *graph.Node) symbolic.Expr { return numel(out0(n)) }

// Bytes implements graph.Op.
func (o BiasAdd) Bytes(n *graph.Node) symbolic.Expr { return graph.IOBytes(n) }

// ---------------------------------------------------------------------------
// Embedding

// Embedding gathers rows of a [v,h] table by integer ids.
type Embedding struct{}

// Kind implements graph.Op.
func (o Embedding) Kind() string { return "embedding" }

// FLOPs implements graph.Op: a table lookup has no arithmetic (paper §2.3).
func (o Embedding) FLOPs(*graph.Node) symbolic.Expr { return symbolic.Zero }

// Bytes implements graph.Op: ids read + gathered rows read + output write.
// The full table is NOT streamed, only the gathered rows.
func (o Embedding) Bytes(n *graph.Node) symbolic.Expr {
	ids := n.Inputs[0]
	out := out0(n)
	return symbolic.Add(ids.Bytes(), graph.Product(n, symbolic.C(2), out.Bytes()))
}

// EmbeddingGrad scatter-adds dY rows into the (dense) table gradient.
type EmbeddingGrad struct{}

// Kind implements graph.Op.
func (o EmbeddingGrad) Kind() string { return "embedding-grad" }

// FLOPs implements graph.Op: one add per gathered element.
func (o EmbeddingGrad) FLOPs(n *graph.Node) symbolic.Expr { return numel(n.Inputs[1]) }

// Bytes implements graph.Op: ids + dY read + scattered row writes; the dense
// gradient tensor is allocated but only touched rows are written.
func (o EmbeddingGrad) Bytes(n *graph.Node) symbolic.Expr {
	ids := n.Inputs[0]
	dy := n.Inputs[1]
	return symbolic.Add(ids.Bytes(), graph.Product(n, symbolic.C(2), dy.Bytes()))
}

// ---------------------------------------------------------------------------
// Softmax and loss

// Softmax normalizes the last axis.
type Softmax struct{}

// Kind implements graph.Op.
func (o Softmax) Kind() string { return "softmax" }

// FLOPs implements graph.Op: max-subtract, exp, sum, divide ≈ 4 per element.
func (o Softmax) FLOPs(n *graph.Node) symbolic.Expr {
	return graph.Product(n, symbolic.C(4), numel(out0(n)))
}

// Bytes implements graph.Op.
func (o Softmax) Bytes(n *graph.Node) symbolic.Expr { return graph.IOBytes(n) }

// SoftmaxGrad computes dX from (Y, dY).
type SoftmaxGrad struct{}

// Kind implements graph.Op.
func (o SoftmaxGrad) Kind() string { return "softmax-grad" }

// FLOPs implements graph.Op.
func (o SoftmaxGrad) FLOPs(n *graph.Node) symbolic.Expr {
	return graph.Product(n, symbolic.C(4), numel(out0(n)))
}

// Bytes implements graph.Op.
func (o SoftmaxGrad) Bytes(n *graph.Node) symbolic.Expr { return graph.IOBytes(n) }

// SoftmaxXent is the fused softmax + cross-entropy loss over logits [m,n]
// and integer labels [m]. Outputs: loss scalar and probs [m,n].
type SoftmaxXent struct{}

// Kind implements graph.Op.
func (o SoftmaxXent) Kind() string { return "softmax-xent" }

// FLOPs implements graph.Op: softmax (4/elem) plus log-likelihood gather and
// reduction (≈1/elem).
func (o SoftmaxXent) FLOPs(n *graph.Node) symbolic.Expr {
	return graph.Product(n, symbolic.C(5), numel(n.Inputs[0]))
}

// Bytes implements graph.Op.
func (o SoftmaxXent) Bytes(n *graph.Node) symbolic.Expr { return graph.IOBytes(n) }

// SoftmaxXentGrad computes dLogits = probs - onehot(labels), scaled by dLoss.
type SoftmaxXentGrad struct{}

// Kind implements graph.Op.
func (o SoftmaxXentGrad) Kind() string { return "softmax-xent-grad" }

// FLOPs implements graph.Op.
func (o SoftmaxXentGrad) FLOPs(n *graph.Node) symbolic.Expr {
	return graph.Product(n, symbolic.C(2), numel(out0(n)))
}

// Bytes implements graph.Op.
func (o SoftmaxXentGrad) Bytes(n *graph.Node) symbolic.Expr { return graph.IOBytes(n) }

// ---------------------------------------------------------------------------
// Normalization and pooling

// BatchNorm normalizes X[n,h,w,c] per channel with scale/shift params.
type BatchNorm struct{}

// Kind implements graph.Op.
func (o BatchNorm) Kind() string { return "batchnorm" }

// FLOPs implements graph.Op: mean, variance, normalize, scale-shift ≈ 8/elem
// in training mode.
func (o BatchNorm) FLOPs(n *graph.Node) symbolic.Expr {
	return graph.Product(n, symbolic.C(8), numel(out0(n)))
}

// Bytes implements graph.Op.
func (o BatchNorm) Bytes(n *graph.Node) symbolic.Expr { return graph.IOBytes(n) }

// BatchNormGrad computes (dX, dGamma, dBeta) from (X, gamma, dY).
type BatchNormGrad struct{}

// Kind implements graph.Op.
func (o BatchNormGrad) Kind() string { return "batchnorm-grad" }

// FLOPs implements graph.Op.
func (o BatchNormGrad) FLOPs(n *graph.Node) symbolic.Expr {
	return graph.Product(n, symbolic.C(11), numel(out0(n)))
}

// Bytes implements graph.Op.
func (o BatchNormGrad) Bytes(n *graph.Node) symbolic.Expr { return graph.IOBytes(n) }

// Pool applies max or average pooling with a KHxKW window.
type Pool struct {
	KH, KW, SH, SW int
	Max            bool
}

// Kind implements graph.Op.
func (o Pool) Kind() string {
	if o.Max {
		return "maxpool"
	}
	return "avgpool"
}

// FLOPs implements graph.Op: one compare/add per window element.
func (o Pool) FLOPs(n *graph.Node) symbolic.Expr {
	return graph.Product(n, symbolic.C(float64(o.KH*o.KW)), numel(out0(n)))
}

// Bytes implements graph.Op.
func (o Pool) Bytes(n *graph.Node) symbolic.Expr { return graph.IOBytes(n) }

// PoolGrad routes or spreads dY back to dX.
type PoolGrad struct {
	KH, KW, SH, SW int
	Max            bool
}

// Kind implements graph.Op.
func (o PoolGrad) Kind() string { return "pool-grad" }

// FLOPs implements graph.Op.
func (o PoolGrad) FLOPs(n *graph.Node) symbolic.Expr { return numel(out0(n)) }

// Bytes implements graph.Op.
func (o PoolGrad) Bytes(n *graph.Node) symbolic.Expr { return graph.IOBytes(n) }

// ---------------------------------------------------------------------------
// Shape and reduction ops

// Reduce sums or averages over the leading axes, keeping the last keep dims.
type Reduce struct {
	KeepDims int  // number of trailing dims kept
	Mean     bool // divide by reduced element count
}

// Kind implements graph.Op.
func (o Reduce) Kind() string { return "reduce" }

// FLOPs implements graph.Op: one add per input element.
func (o Reduce) FLOPs(n *graph.Node) symbolic.Expr { return numel(n.Inputs[0]) }

// Bytes implements graph.Op.
func (o Reduce) Bytes(n *graph.Node) symbolic.Expr { return graph.IOBytes(n) }

// Broadcast expands a tensor along new leading axes (the gradient of
// Reduce). Scaled for mean-reduce gradients.
type Broadcast struct {
	ScaleFlops bool
}

// Kind implements graph.Op.
func (o Broadcast) Kind() string { return "broadcast" }

// FLOPs implements graph.Op.
func (o Broadcast) FLOPs(n *graph.Node) symbolic.Expr {
	if o.ScaleFlops {
		return numel(out0(n))
	}
	return symbolic.Zero
}

// Bytes implements graph.Op.
func (o Broadcast) Bytes(n *graph.Node) symbolic.Expr { return graph.IOBytes(n) }

// Concat joins tensors along an axis.
type Concat struct{ Axis int }

// Kind implements graph.Op.
func (o Concat) Kind() string { return "concat" }

// FLOPs implements graph.Op: pure data movement.
func (o Concat) FLOPs(*graph.Node) symbolic.Expr { return symbolic.Zero }

// Bytes implements graph.Op.
func (o Concat) Bytes(n *graph.Node) symbolic.Expr { return graph.IOBytes(n) }

// Split divides a tensor into N equal parts along an axis.
type Split struct {
	Axis int
	N    int
}

// Kind implements graph.Op.
func (o Split) Kind() string { return "split" }

// FLOPs implements graph.Op.
func (o Split) FLOPs(*graph.Node) symbolic.Expr { return symbolic.Zero }

// Bytes implements graph.Op.
func (o Split) Bytes(n *graph.Node) symbolic.Expr { return graph.IOBytes(n) }

// Transpose permutes tensor axes (real data movement).
type Transpose struct{ Perm []int }

// Kind implements graph.Op.
func (o Transpose) Kind() string { return "transpose" }

// FLOPs implements graph.Op.
func (o Transpose) FLOPs(*graph.Node) symbolic.Expr { return symbolic.Zero }

// Bytes implements graph.Op.
func (o Transpose) Bytes(n *graph.Node) symbolic.Expr { return graph.IOBytes(n) }

// Reshape reinterprets a tensor's shape without moving data.
type Reshape struct{}

// Kind implements graph.Op.
func (o Reshape) Kind() string { return "reshape" }

// FLOPs implements graph.Op.
func (o Reshape) FLOPs(*graph.Node) symbolic.Expr { return symbolic.Zero }

// Bytes implements graph.Op: a view costs nothing.
func (o Reshape) Bytes(*graph.Node) symbolic.Expr { return symbolic.Zero }

// GradAccum folds a gradient partial into a running accumulator. Framework
// profilers (the paper's TFprof methodology) annotate no FLOPs for gradient
// aggregation — the adds fuse into the producing GEMM's beta=1 accumulation —
// but its tensor traffic is real and is what lifts the paper's bytes/param
// to ~6q·4 B (λ = 1755/3510/3100 for word/char/speech at q = 80/150/~130).
type GradAccum struct{}

// Kind implements graph.Op.
func (o GradAccum) Kind() string { return "grad-accum" }

// FLOPs implements graph.Op.
func (o GradAccum) FLOPs(*graph.Node) symbolic.Expr { return symbolic.Zero }

// Bytes implements graph.Op: reads both partials, writes the sum.
func (o GradAccum) Bytes(n *graph.Node) symbolic.Expr { return graph.IOBytes(n) }

// Fill produces a constant tensor (e.g. the backprop seed gradient).
type Fill struct{ Value float64 }

// Kind implements graph.Op.
func (o Fill) Kind() string { return "fill" }

// FLOPs implements graph.Op.
func (o Fill) FLOPs(*graph.Node) symbolic.Expr { return symbolic.Zero }

// Bytes implements graph.Op.
func (o Fill) Bytes(n *graph.Node) symbolic.Expr { return out0(n).Bytes() }

// ---------------------------------------------------------------------------
// Optimizer

// SGDMomentum applies one momentum-SGD update to a parameter in place:
// m ← µ·m + g; w ← w − lr·m. Inputs: (param, grad, momentum); no outputs.
type SGDMomentum struct {
	LR, Mu float64
}

// Kind implements graph.Op.
func (o SGDMomentum) Kind() string { return "sgd-momentum" }

// FLOPs implements graph.Op: 4 FLOPs per parameter.
func (o SGDMomentum) FLOPs(n *graph.Node) symbolic.Expr {
	return graph.Product(n, symbolic.C(4), numel(n.Inputs[0]))
}

// Bytes implements graph.Op: read w,g,m; write w,m — five accesses/param.
func (o SGDMomentum) Bytes(n *graph.Node) symbolic.Expr {
	return graph.Product(n, symbolic.C(5), n.Inputs[0].Bytes())
}

// IsGradKind reports whether an op kind string names a backward op. Used by
// analyses that split forward from backward cost.
func IsGradKind(kind string) bool {
	switch kind {
	case "conv2d-grad-input", "conv2d-grad-weight", "softmax-grad",
		"softmax-xent-grad", "batchnorm-grad", "pool-grad", "embedding-grad",
		"sgd-momentum", "fill", "grad-accum":
		return true
	}
	return len(kind) > 5 && kind[len(kind)-5:] == "-grad"
}

var errShape = fmt.Errorf("ops: shape mismatch")
