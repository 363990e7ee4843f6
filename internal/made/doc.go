// Package made implements ResMADE (§3.4): a masked autoregressive MLP with
// per-column embeddings, residual blocks of masked linear layers, and
// per-column output heads tied to the input embeddings. The autoregressive
// masks guarantee that the head for column i depends only on columns < i, so
// one network represents every conditional p(X_i | x_<i) of the product-rule
// factorization (Eq. 1) simultaneously.
//
// Wildcard skipping (Naru's training-time masking) is built in: random input
// positions are replaced by a learned MASK embedding while their targets are
// kept, teaching the model the marginalized conditionals that inference uses
// to skip unconstrained columns.
//
// # Sessions
//
// The Model holds parameters and the training-step implementation; all
// steady-state compute goes through preallocated sessions. InferSession is
// the serving hot path: incremental prefix-restricted trunk passes over
// sorted MADE degrees, per-token delta updates of the input preactivation,
// lazy batch replication, and row compaction (DESIGN.md §1.1). TrainSession
// is its training counterpart, preallocating every activation, gradient,
// and transpose buffer for a fixed maximum batch (DESIGN.md §1.3). Both are
// pinned to the reference implementations by 1e-9 equivalence tests.
//
// # Serving precision
//
// Sessions are generic over the element width (nn.Elem). NewInferSession
// instantiates float64 over a view that aliases the trainable parameters;
// on AVX2 hosts that view is a per-version snapshot (weights64) that adds
// the transposed output embeddings, and the session runs the bit-identical
// AVX kernels (nn.MatMulCols64, nn.EmbedAxpy64). NewInferSession32
// instantiates float32 over
// an immutable converted snapshot (weights32) built once per model version
// and shared by every session of the model — trunk and head weights are
// stored transposed (nn.ConvertT32) so the extension kernels run contiguous
// SSE dot products. Checkpoints and training are float64 regardless; the
// float32 view is rebuilt from the masters whenever the weight version
// advances (DESIGN.md §1.4).
package made
