/**
 * @file
 * Fully connected feed-forward artificial neural network trained by
 * backpropagation with momentum (Chapter 3 of the paper).
 *
 * The paper's configuration: one hidden layer of 16 sigmoid units,
 * learning rate 0.001, momentum 0.5, weights initialized uniformly on
 * [-0.01, +0.01]. Inputs and targets are pre-normalized to [0, 1] by
 * the encoding layer, and the output unit is sigmoid as well. One or
 * more output units are supported (multiple outputs implement the
 * multi-task learning extension of Chapter 7).
 *
 * Numeric core (see DESIGN.md, "Numeric kernels"): all weights live in
 * one flat contiguous arena per network, layer after layer, each layer
 * stored input-major [(in+1) x out] — row i holds every unit's weight
 * for input i, with the bias row last. That transposed-by-default
 * layout is what the hot loops want: the scalar forward and the
 * momentum update vectorize across units at unit stride, and delta
 * backprop reads unit-stride rows. weights()/setWeights() convert to
 * and from the historical unit-major flat order, so serialization and
 * checkpoint formats are unchanged. Prediction also has a blocked
 * batched path (predictBatch / predictBlockT) that streams each
 * layer's weights once per block of up to kBlock design points and is
 * bit-for-bit identical to the single-point path. Training is a fused
 * epoch pipeline (trainEpoch): delta backprop and the momentum update
 * run as one back-to-front arena sweep per example, the presentation
 * loop sweeps packed row-major example matrices, and the default
 * shape's epoch is one vector-typed cloned function — see DESIGN.md,
 * "Training pipeline".
 */

#ifndef DSE_ML_ANN_HH
#define DSE_ML_ANN_HH

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/rng.hh"

namespace dse {
namespace ml {

namespace testref {
struct AnnAccess;
}

/** Hyper-parameters for network construction and training. */
struct AnnParams
{
    /**
     * Defaults follow the paper (16 hidden units, one layer,
     * momentum 0.5, near-zero init) except the learning rate and its
     * decay: the paper's 0.001 assumes hours-scale training budgets;
     * with this library's seconds-scale budgets an aggressive rate
     * annealed by decayEpochs reaches the same fits (see
     * bench/ablation_model_choices).
     */
    int hiddenUnits = 16;
    int hiddenLayers = 1;
    double learningRate = 0.4;
    double momentum = 0.5;
    double initWeightRange = 0.01;  ///< weights uniform on [-r, +r]
    /**
     * Learning-rate decay horizon in epochs: the effective rate at
     * epoch e is learningRate / (1 + e / decayEpochs). 0 disables
     * decay. Decay lets training start aggressively and settle into
     * a fine-grained fit.
     */
    double decayEpochs = 2500.0;
};

/**
 * The constants of stableSigmoid's e^-|x|, shared with the training
 * epoch's four-lane copy of it (ann.cc), which must round the same.
 */
namespace sigmoid {
constexpr double kClamp = 708.0;
constexpr double kLog2e = 1.4426950408889634074;
constexpr double kLn2Hi = 6.93147180369123816490e-01;
constexpr double kLn2Lo = 1.90821492927058770002e-10;
constexpr double kShift = 6755399441055744.0;  // 1.5 * 2^52
/** Taylor coefficients 1/k! of e^r, k = 0..12. */
constexpr double kC[13] = {
    1.0, 1.0, 0.5, 1.6666666666666666e-01, 4.1666666666666664e-02,
    8.3333333333333332e-03, 1.3888888888888889e-03,
    1.9841269841269841e-04, 2.4801587301587302e-05,
    2.7557319223985893e-06, 2.7557319223985888e-07,
    2.5052108385441720e-08, 2.0876756987868100e-09};
} // namespace sigmoid

/**
 * Numerically stable sigmoid, 1 / (1 + e^-x), evaluated via a
 * range-reduced polynomial so the whole kernel autovectorizes (no
 * libm call in the hot loop) and never overflows: |x| is clamped at
 * 708 before exponentiation, which is value-preserving — the exact
 * result already saturates to 0/1 (to the last ulp of a double)
 * far inside that bound. Relative error vs. the libm form is below
 * 1e-15 across the whole clamped range (tests/test_ann.cc sweeps it).
 *
 * This is the single activation definition used by the scalar,
 * batched, and training kernels, which is what makes batched and
 * single-point prediction bit-for-bit identical.
 */
inline double
stableSigmoid(double x)
{
    using namespace sigmoid;
    double a = x < 0.0 ? -x : x;
    if (a > kClamp)
        a = kClamp;
    // e^{-a} = 2^n * e^r with n = round(-a * log2 e), |r| <= ln2 / 2.
    // The 1.5*2^52 shift trick rounds to nearest without a libm call,
    // and n is recovered from the shifted double's low mantissa bits.
    const double y = -a;
    const double kd = y * kLog2e + kShift;
    const double n = kd - kShift;
    double r = y - n * kLn2Hi;
    r = r - n * kLn2Lo;
    const int64_t ki = std::bit_cast<int64_t>(kd) -
        std::bit_cast<int64_t>(kShift);
    const double scale =
        std::bit_cast<double>(static_cast<uint64_t>(ki + 1023) << 52);
    // e^r as a degree-12 Taylor polynomial: remainder < 7e-15 rel.
    // Estrin's scheme, not Horner's: the evaluation tree is ~4 levels
    // deep instead of a 12-step serial chain, and the output unit's
    // sigmoid sits on the training step's critical path.
    const double r2 = r * r;
    const double r4 = r2 * r2;
    const double r8 = r4 * r4;
    const double q0 = kC[0] + r * kC[1];
    const double q1 = kC[2] + r * kC[3];
    const double q2 = kC[4] + r * kC[5];
    const double q3 = kC[6] + r * kC[7];
    const double q4 = kC[8] + r * kC[9];
    const double q5 = kC[10] + r * kC[11];
    const double q6 = kC[12];
    const double t0 = q0 + r2 * q1;
    const double t1 = q2 + r2 * q3;
    const double t2 = q4 + r2 * q5;
    const double u0 = t0 + r4 * t1;
    const double u1 = t2 + r4 * q6;
    const double p = u0 + r8 * u1;
    const double t = p * scale;  // e^{-|x|}, in (0, 1]
    // Both sign branches divide by the same 1 + t; selecting the
    // numerator first keeps the result bit-identical per element
    // while letting the vectorizer emit one division and a blend
    // instead of two masked divisions.
    const double num = x >= 0.0 ? 1.0 : t;
    return num / (1.0 + t);
}

/**
 * A feed-forward network with sigmoid activations throughout.
 *
 * The network owns its weights; training is incremental (per-example
 * stochastic gradient descent), so callers control presentation order
 * and frequency — which is how the percentage-error weighting of
 * Section 3.3 is implemented (frequent presentation of
 * low-target-value examples).
 */
class Ann
{
  public:
    /**
     * Points per internal block of the batched-prediction path: each
     * layer's weights are streamed once per block and reused for all
     * points in it, keeping weights and the block's activations
     * L1-resident. Ensemble-level callers (predictBatch,
     * memberSpreadBatch) transpose one kBlock panel and run every
     * member over it; predictBlockT's per-thread scratch is sized
     * 2 * maxLayerWidth * kBlock doubles, so kBlock also bounds
     * per-thread scratch growth.
     */
    static constexpr size_t kBlock = 64;

    /**
     * @param inputs width of the input layer
     * @param outputs width of the output layer
     * @param params topology and learning hyper-parameters
     * @param rng source for weight initialization
     */
    Ann(int inputs, int outputs, const AnnParams &params, Rng &rng);

    /**
     * Forward pass; returns the output activations. Thread-safe on a
     * const network: concurrent predictions (parallel design-space
     * evaluation) use per-thread scratch, not the member activation
     * buffers that trainEpoch() owns.
     */
    std::vector<double> predict(const std::vector<double> &input) const;

    /**
     * Convenience for single-output networks (also thread-safe; for
     * multi-output networks returns the first output). Performs no
     * heap allocation after per-thread scratch warm-up.
     */
    double predictScalar(const std::vector<double> &input) const;

    /**
     * Batched forward pass over n points. @p x is row-major
     * [n x inputs()], @p y is row-major [n x outputs()]. Processes the
     * points in blocks of kBlock; per point, bit-for-bit identical to
     * predict(). Thread-safe on a const network.
     */
    void predictBatch(const double *x, size_t n, double *y) const;

    /**
     * Low-level batched forward pass on one pre-transposed block:
     * @p xT is [inputs()][nb] (coordinate-major), @p yT is
     * [outputs()][nb]; nb must be in [1, kBlock]. Lets ensemble-level
     * callers (mean prediction and committee member-spread scoring
     * alike) transpose a block once and reuse it across member
     * networks. For nb == 1 this reads the input in place (a plain
     * feature vector is its own 1-column transpose).
     */
    void predictBlockT(const double *xT, size_t nb, double *yT) const;

    /**
     * One epoch of stochastic gradient descent (backpropagation with
     * momentum, Equation 3.2) over packed example matrices: @p x is
     * row-major [rows_needed x inputs()], @p t is row-major
     * [rows_needed x outputs()], and presentation p trains on example
     * row order[p] (rows when @p order is null, i.e. the in-place
     * order). @p order entries may repeat and need not cover every
     * row — weighted presentation (Section 3.3) draws rows with
     * replacement — they only have to index valid rows of @p x/@p t.
     * One row with a null order is a single per-example step.
     *
     * Each presentation is one forward pass and one fused
     * backward+update sweep, accumulated in presentation order, so
     * an epoch is bit-for-bit identical to the same presentations
     * made as one-row epochs: the returned summed squared error and
     * every weight agree exactly. The rows stream from two flat
     * buffers (see trainFolds, which packs each fold once). The
     * default shape (one hidden layer of 16 units, one output) runs
     * the whole epoch as one ISA-cloned function on GCC vector types;
     * every other shape runs the layered per-example kernels, whose
     * arithmetic that body repeats lane by lane (DESIGN.md, "Training
     * pipeline").
     *
     * Divergence detection: a non-finite example error (NaN/Inf
     * inputs, or weights that have already blown up) latches the
     * diverged() flag; the trainer uses it to abandon the attempt
     * and retry from a reseeded initialization rather than let NaNs
     * propagate into the ensemble (see trainFolds).
     *
     * @return the sum of per-example squared errors (pre-update),
     *         accumulated in presentation order
     */
    double trainEpoch(const double *x, const double *t,
                      const uint32_t *order, size_t rows);

    /** True once any training step produced a non-finite error. */
    bool diverged() const { return diverged_; }

    /** True iff every weight (and momentum term) is finite. */
    bool finiteWeights() const;

    int inputs() const { return inputs_; }
    int outputs() const { return outputs_; }

    /** Total number of trainable weights (including biases). */
    size_t weightCount() const { return w_.size(); }

    /**
     * Flat copy of all weights (testing/inspection/checkpointing):
     * layer after layer, each layer unit-major [out x (in+1)] with
     * the bias last in every row — the order this library has always
     * serialized, converted from the internal input-major arena.
     */
    std::vector<double> weights() const;

    /** Restore weights from a flat copy (early-stopping rollback). */
    void setWeights(const std::vector<double> &flat);

    /** Override the current learning rate (e.g. for decay schedules). */
    void setLearningRate(double eta) { params_.learningRate = eta; }

    /** The construction-time hyper-parameters. */
    const AnnParams &params() const { return params_; }

  private:
    /** Per-layer extents and offsets into the flat arenas. */
    struct Layer
    {
        int in = 0;
        int out = 0;
        size_t w = 0;    ///< offset into w_/dwPrev_: [(in + 1) x out]
        size_t act = 0;  ///< offset into act_/delta_: [out]
    };

    /**
     * trainEpoch through the per-example layered kernels: the path of
     * every shape but one hidden layer of 16 units with one output,
     * and the exact test oracle for that shape's epoch body
     * (testref::AnnAccess reaches it).
     */
    double trainEpochLayered(const double *x, const double *t,
                             const uint32_t *order, size_t rows);

    /**
     * trainEpoch of the default shape through its epoch body at
     * @p lanes hidden units per vector: 4, or 8 where widestLanes()
     * is 8. Every width computes the same bits.
     */
    double trainEpochLanes(int lanes, const double *x, const double *t,
                           const uint32_t *order, size_t rows);

    /** The widest epoch body this CPU runs: 8 lanes with AVX-512F,
     *  else 4. trainEpoch takes it. */
    static int widestLanes();

    /** One presentation: forward + fused backward/update sweep. */
    double trainExample(const double *x, const double *t);

    friend struct testref::AnnAccess;

    int inputs_;
    int outputs_;
    AnnParams params_;
    bool diverged_ = false;  ///< latched by trainEpoch() on non-finite error
    std::vector<Layer> layers_;
    int maxWidth_ = 0;  ///< max layer output width
    /**
     * Weight arena, input-major per layer: element [i * out + j] is
     * unit j's weight for input i; row `in` (last) is the biases.
     */
    std::vector<double> w_;
    std::vector<double> dwPrev_;  ///< previous updates, same layout
    // Scratch activations/deltas owned by trainEpoch(); const prediction
    // paths use per-thread scratch instead.
    mutable std::vector<double> act_;
    mutable std::vector<double> delta_;
};

} // namespace ml
} // namespace dse

#endif // DSE_ML_ANN_HH
