#include "ml/ann.hh"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

// Hot kernels are compiled once per ISA level with runtime ifunc
// dispatch where the toolchain supports it. The variants stay
// bit-identical because the build forbids FP contraction
// (-ffp-contract=off, see the top-level CMakeLists) and every kernel
// fixes its accumulation order explicitly. Sanitized builds keep the
// plain kernels: ifunc resolvers run before the tsan/asan runtime is
// initialized and crash at load.
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
#  define DSE_NO_TARGET_CLONES 1
#elif defined(__has_feature)
#  if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
#    define DSE_NO_TARGET_CLONES 1
#  endif
#endif
#if defined(__x86_64__) && defined(__has_attribute) && \
    !defined(DSE_NO_TARGET_CLONES)
#  if __has_attribute(target_clones)
#    define DSE_TARGET_CLONES \
        __attribute__((target_clones("default", "avx2", "avx512f")))
#    define DSE_CLONES_AVX2 \
        __attribute__((target_clones("default", "avx2")))
#  endif
#endif
#ifndef DSE_TARGET_CLONES
#  define DSE_TARGET_CLONES
#  define DSE_CLONES_AVX2
#endif
// The default shape's eight-lane epoch body is one function compiled
// for AVX-512F and chosen at run time by a CPU check, not an ifunc, so
// sanitized builds run it too.
#if defined(__x86_64__)
#  define DSE_HAVE_LANES8 1
#endif

namespace dse {
namespace ml {

namespace {

/**
 * Canonical dot product: four independent accumulation lanes, element
 * i always into lane i % 4, lanes combined pairwise at the end, bias
 * (when present) added last. Every forward kernel — scalar,
 * unit-vectorized, and batched — applies this exact discipline per
 * (point, unit), which is what makes them bit-for-bit interchangeable;
 * the four lanes also map directly onto SIMD registers.
 */
inline double
dot4(const double *a, const double *b, int n)
{
    double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
    int i = 0;
    if (n >= 4) {
        s0 = a[0] * b[0];
        s1 = a[1] * b[1];
        s2 = a[2] * b[2];
        s3 = a[3] * b[3];
        for (i = 4; i + 4 <= n; i += 4) {
            s0 += a[i] * b[i];
            s1 += a[i + 1] * b[i + 1];
            s2 += a[i + 2] * b[i + 2];
            s3 += a[i + 3] * b[i + 3];
        }
    }
    for (; i < n; ++i) {
        const double p = a[i] * b[i];
        switch (i & 3) {
          case 0: s0 += p; break;
          case 1: s1 += p; break;
          case 2: s2 += p; break;
          default: s3 += p; break;
        }
    }
    return (s0 + s1) + (s2 + s3);
}

/** dot4 with both operands strided (one unit column x one block column). */
inline double
dot4Strided(const double *a, size_t astride, const double *x,
            size_t xstride, int n)
{
    double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
    int i = 0;
    if (n >= 4) {
        s0 = a[0] * x[0];
        s1 = a[astride] * x[xstride];
        s2 = a[2 * astride] * x[2 * xstride];
        s3 = a[3 * astride] * x[3 * xstride];
        for (i = 4; i + 4 <= n; i += 4) {
            s0 += a[static_cast<size_t>(i) * astride] *
                x[static_cast<size_t>(i) * xstride];
            s1 += a[static_cast<size_t>(i + 1) * astride] *
                x[static_cast<size_t>(i + 1) * xstride];
            s2 += a[static_cast<size_t>(i + 2) * astride] *
                x[static_cast<size_t>(i + 2) * xstride];
            s3 += a[static_cast<size_t>(i + 3) * astride] *
                x[static_cast<size_t>(i + 3) * xstride];
        }
    }
    for (; i < n; ++i) {
        const double p = a[static_cast<size_t>(i) * astride] *
            x[static_cast<size_t>(i) * xstride];
        switch (i & 3) {
          case 0: s0 += p; break;
          case 1: s1 += p; break;
          case 2: s2 += p; break;
          default: s3 += p; break;
        }
    }
    return (s0 + s1) + (s2 + s3);
}

DSE_TARGET_CLONES void
sigmoidInPlace(double *__restrict v, size_t n)
{
    for (size_t i = 0; i < n; ++i)
        v[i] = stableSigmoid(v[i]);
}

/**
 * Single-unit layer forward: exactly dot4 plus the trailing bias,
 * through the shared sigmoid. Deliberately NOT ISA-cloned — the plain
 * loop both inlines into its caller and vectorizes well, while ifunc
 * dispatch plus the cloned vectorizer's choices on a lone reduction
 * cost several times the kernel itself at this size.
 */
inline double
layerForwardOne(const double *__restrict w, int in,
                const double *__restrict x)
{
    return stableSigmoid(dot4(w, x, in) + w[in]);
}

/**
 * Body of the multi-unit single-point forward pass: y = sigmoid(W x +
 * b), with @p w input-major [(in + 1) x out], bias row last. The
 * accumulation runs vectorized ACROSS UNITS — four accumulator rows of
 * `out` each, lane i % 4 taking input i — so the value computed for
 * every unit is exactly dot4's. @p acc is 4 * out scratch.
 *
 * Always-inlined into ISA-cloned wrappers so each clone vectorizes
 * the body for its own instruction set; the wrappers for the common
 * fixed widths pass stack lane rows (which the compiler keeps in
 * registers across the input strips) and a compile-time width.
 */
__attribute__((always_inline)) inline void
layerForwardWideBody(const double *__restrict w, int in, int out,
                     const double *__restrict x, double *__restrict y,
                     double *__restrict a0, double *__restrict a1,
                     double *__restrict a2, double *__restrict a3)
{
    const size_t o = static_cast<size_t>(out);
    int i = 0;
    if (in >= 4) {
        for (int j = 0; j < out; ++j) {
            a0[j] = x[0] * w[j];
            a1[j] = x[1] * w[o + j];
            a2[j] = x[2] * w[2 * o + j];
            a3[j] = x[3] * w[3 * o + j];
        }
        for (i = 4; i + 4 <= in; i += 4) {
            const double *r = w + static_cast<size_t>(i) * o;
            for (int j = 0; j < out; ++j) {
                a0[j] += x[i] * r[j];
                a1[j] += x[i + 1] * r[o + j];
                a2[j] += x[i + 2] * r[2 * o + j];
                a3[j] += x[i + 3] * r[3 * o + j];
            }
        }
    } else {
        for (int j = 0; j < out; ++j) {
            a0[j] = 0.0;
            a1[j] = 0.0;
            a2[j] = 0.0;
            a3[j] = 0.0;
        }
    }
    for (; i < in; ++i) {
        double *a = (i & 3) == 0 ? a0
            : (i & 3) == 1 ? a1 : (i & 3) == 2 ? a2 : a3;
        const double *r = w + static_cast<size_t>(i) * o;
        for (int j = 0; j < out; ++j)
            a[j] += x[i] * r[j];
    }
    const double *bias = w + static_cast<size_t>(in) * o;
    for (int j = 0; j < out; ++j)
        y[j] = stableSigmoid(((a0[j] + a1[j]) + (a2[j] + a3[j])) +
                             bias[j]);
}

DSE_TARGET_CLONES void
layerForwardWide(const double *__restrict w, int in, int out,
                 const double *__restrict x, double *__restrict y,
                 double *__restrict acc)
{
    layerForwardWideBody(w, in, out, x, y, acc, acc + out,
                         acc + 2 * static_cast<size_t>(out),
                         acc + 3 * static_cast<size_t>(out));
}

/** Fixed-width clone: the paper's default hidden width. */
DSE_TARGET_CLONES void
layerForwardWide16(const double *__restrict w, int in,
                   const double *__restrict x, double *__restrict y)
{
    double a0[16], a1[16], a2[16], a3[16];
    layerForwardWideBody(w, in, 16, x, y, a0, a1, a2, a3);
}

/** Fixed-width clone: the benchmarked double-width variant. */
DSE_TARGET_CLONES void
layerForwardWide32(const double *__restrict w, int in,
                   const double *__restrict x, double *__restrict y)
{
    double a0[32], a1[32], a2[32], a3[32];
    layerForwardWideBody(w, in, 32, x, y, a0, a1, a2, a3);
}

/**
 * One layer of the single-point forward pass, dispatched by width.
 * All the targets follow the same per-(point, unit) lane discipline,
 * so which one runs is invisible in the results.
 */
inline void
layerForwardScalar(const double *__restrict w, int in, int out,
                   const double *__restrict x, double *__restrict y,
                   double *__restrict acc)
{
    if (out == 1)
        y[0] = layerForwardOne(w, in, x);
    else if (out == 16)
        layerForwardWide16(w, in, x, y);
    else if (out == 32)
        layerForwardWide32(w, in, x, y);
    else
        layerForwardWide(w, in, out, x, y, acc);
}

/**
 * One layer of the batched forward pass on a transposed block: xT is
 * [in][nb], yT is [out][nb]. Each unit's weight column is read once
 * for the whole block; points advance in register sub-blocks of kW
 * with the four dot4 lanes held entirely in registers. Per point, the
 * arithmetic is exactly dot4's.
 */
DSE_TARGET_CLONES void
layerForwardBatch(const double *__restrict w, int in, int out,
                  const double *__restrict xT, size_t nb,
                  double *__restrict yT)
{
    constexpr size_t kW = 8;
    const size_t o = static_cast<size_t>(out);
    const double *biasRow = w + static_cast<size_t>(in) * o;
    for (int j = 0; j < out; ++j) {
        const double *wj = w + j;  // unit j's weight column, stride o
        const double bias = biasRow[j];
        double *y = yT + static_cast<size_t>(j) * nb;
        size_t b = 0;
        for (; b + kW <= nb; b += kW) {
            const double *xb = xT + b;
            double s0[kW], s1[kW], s2[kW], s3[kW];
            int i = 0;
            if (in >= 4) {
                const double w0 = wj[0];
                const double w1 = wj[o];
                const double w2 = wj[2 * o];
                const double w3 = wj[3 * o];
                for (size_t v = 0; v < kW; ++v) {
                    s0[v] = w0 * xb[v];
                    s1[v] = w1 * xb[nb + v];
                    s2[v] = w2 * xb[2 * nb + v];
                    s3[v] = w3 * xb[3 * nb + v];
                }
                for (i = 4; i + 4 <= in; i += 4) {
                    const double *wi = wj + static_cast<size_t>(i) * o;
                    const double u0 = wi[0];
                    const double u1 = wi[o];
                    const double u2 = wi[2 * o];
                    const double u3 = wi[3 * o];
                    const double *xi = xb + static_cast<size_t>(i) * nb;
                    for (size_t v = 0; v < kW; ++v) {
                        s0[v] += u0 * xi[v];
                        s1[v] += u1 * xi[nb + v];
                        s2[v] += u2 * xi[2 * nb + v];
                        s3[v] += u3 * xi[3 * nb + v];
                    }
                }
            } else {
                for (size_t v = 0; v < kW; ++v) {
                    s0[v] = 0.0;
                    s1[v] = 0.0;
                    s2[v] = 0.0;
                    s3[v] = 0.0;
                }
            }
            for (; i < in; ++i) {
                double *s = (i & 3) == 0 ? s0
                    : (i & 3) == 1 ? s1 : (i & 3) == 2 ? s2 : s3;
                const double wv = wj[static_cast<size_t>(i) * o];
                const double *xi = xb + static_cast<size_t>(i) * nb;
                for (size_t v = 0; v < kW; ++v)
                    s[v] += wv * xi[v];
            }
            for (size_t v = 0; v < kW; ++v)
                y[b + v] = ((s0[v] + s1[v]) + (s2[v] + s3[v])) + bias;
        }
        for (; b < nb; ++b)
            y[b] = dot4Strided(wj, o, xT + b, nb, in) + bias;
    }
    sigmoidInPlace(yT, o * nb);
}

/**
 * Momentum weight update (Equation 3.2) for a single-output layer,
 * whose weight column is contiguous: one unit-stride pass over
 * [in + 1] weights. Plain for the same reason as layerForwardOne.
 */
inline void
updateLayerOne(double *__restrict w, double *__restrict dw, int in,
               const double *__restrict x, double d0, double eta,
               double alpha)
{
    const double g0 = eta * d0;
    for (int i = 0; i < in; ++i) {
        const double update = g0 * x[i] + alpha * dw[i];
        w[i] += update;
        dw[i] = update;
    }
    const double update = g0 + alpha * dw[in];
    w[in] += update;
    dw[in] = update;
}

/**
 * Momentum weight update (Equation 3.2) for a multi-unit layer. In
 * the input-major layout this is a single unit-stride pass over the
 * whole [(in + 1) x out] arena slab: input i's row of per-unit
 * updates is g[j] * x[i] + alpha * dw, with g[j] = eta * d[j]
 * precomputed into @p g (out scratch doubles). Same per-weight
 * arithmetic and order as the classical per-unit loop.
 */
DSE_TARGET_CLONES void
updateLayer(double *__restrict w, double *__restrict dw, int in, int out,
            const double *__restrict x, const double *__restrict d,
            double eta, double alpha, double *__restrict g)
{
    const size_t o = static_cast<size_t>(out);
    for (int j = 0; j < out; ++j)
        g[j] = eta * d[j];
    for (int i = 0; i < in; ++i) {
        double *wr = w + static_cast<size_t>(i) * o;
        double *dwr = dw + static_cast<size_t>(i) * o;
        const double xi = x[i];
        for (int j = 0; j < out; ++j) {
            const double update = g[j] * xi + alpha * dwr[j];
            wr[j] += update;
            dwr[j] = update;
        }
    }
    double *wb = w + static_cast<size_t>(in) * o;
    double *dwb = dw + static_cast<size_t>(in) * o;
    for (int j = 0; j < out; ++j) {
        const double update = g[j] + alpha * dwb[j];
        wb[j] += update;
        dwb[j] = update;
    }
}

/**
 * Fused delta backprop + momentum update (Equation 3.2) for a
 * single-output layer, whose weight column is contiguous: one
 * unit-stride pass over [in + 1] weights reads each weight pre-update
 * to form the incoming delta d[i], then applies the update to that
 * same weight before moving on — exactly backpropDeltas followed by
 * updateLayerOne, with half the weight-arena traffic. The layer's
 * input vector IS the previous layer's activation vector, so @p act
 * serves both the sigmoid derivative (o_i (1 - o_i)) and the update's
 * x_i. Plain for the same reason as layerForwardOne.
 */
inline void
fusedBackUpdateOne(double *__restrict w, double *__restrict dw, int in,
                   const double *__restrict act, double dn0,
                   double *__restrict d, double eta, double alpha)
{
    const double g0 = eta * dn0;
    for (int i = 0; i < in; ++i) {
        const double oi = act[i];
        d[i] = (w[i] * dn0) * oi * (1.0 - oi);
        const double update = g0 * oi + alpha * dw[i];
        w[i] += update;
        dw[i] = update;
    }
    const double update = g0 + alpha * dw[in];
    w[in] += update;
    dw[in] = update;
}

/**
 * Body of the fused backprop + update for a multi-unit layer: per
 * input row i, the pre-update weight row forms the incoming delta
 * (dot4 against the layer's own deltas — the exact backpropDeltas
 * arithmetic), then the same row takes the Equation-3.2 momentum
 * update (the exact updateLayer arithmetic, g[j] = eta * d[j]
 * precomputed into @p g). Each [(in + 1) x out] slab of the weight
 * and momentum arenas is therefore touched once per example instead
 * of twice. Always-inlined into ISA-cloned wrappers like the forward
 * kernels; the fixed-width wrappers pass stack g rows.
 */
__attribute__((always_inline)) inline void
fusedBackUpdateWideBody(double *__restrict w, double *__restrict dw,
                        int in, int out, const double *__restrict act,
                        const double *__restrict dnext,
                        double *__restrict d, double eta, double alpha,
                        double *__restrict g)
{
    const size_t o = static_cast<size_t>(out);
    for (int j = 0; j < out; ++j)
        g[j] = eta * dnext[j];
    for (int i = 0; i < in; ++i) {
        double *wr = w + static_cast<size_t>(i) * o;
        double *dwr = dw + static_cast<size_t>(i) * o;
        const double sum = dot4(wr, dnext, out);
        const double oi = act[i];
        d[i] = sum * oi * (1.0 - oi);
        for (int j = 0; j < out; ++j) {
            const double update = g[j] * oi + alpha * dwr[j];
            wr[j] += update;
            dwr[j] = update;
        }
    }
    double *wb = w + static_cast<size_t>(in) * o;
    double *dwb = dw + static_cast<size_t>(in) * o;
    for (int j = 0; j < out; ++j) {
        const double update = g[j] + alpha * dwb[j];
        wb[j] += update;
        dwb[j] = update;
    }
}

DSE_TARGET_CLONES void
fusedBackUpdateWide(double *__restrict w, double *__restrict dw, int in,
                    int out, const double *__restrict act,
                    const double *__restrict dnext, double *__restrict d,
                    double eta, double alpha, double *__restrict g)
{
    fusedBackUpdateWideBody(w, dw, in, out, act, dnext, d, eta, alpha, g);
}

/** Fixed-width clone: the paper's default hidden width. */
DSE_TARGET_CLONES void
fusedBackUpdateWide16(double *__restrict w, double *__restrict dw, int in,
                      const double *__restrict act,
                      const double *__restrict dnext,
                      double *__restrict d, double eta, double alpha)
{
    double g[16];
    fusedBackUpdateWideBody(w, dw, in, 16, act, dnext, d, eta, alpha, g);
}

/** Fixed-width clone: the benchmarked double-width variant. */
DSE_TARGET_CLONES void
fusedBackUpdateWide32(double *__restrict w, double *__restrict dw, int in,
                      const double *__restrict act,
                      const double *__restrict dnext,
                      double *__restrict d, double eta, double alpha)
{
    double g[32];
    fusedBackUpdateWideBody(w, dw, in, 32, act, dnext, d, eta, alpha, g);
}

/**
 * Fused backward+update for one layer, dispatched by width with the
 * same discipline as the forward pass: out == 1 stays plain (the
 * dominant shape — one delta chain per output unit — where cloning
 * pessimizes the tiny reduction ~7x), the fixed 16/32 widths and the
 * runtime width are ISA-cloned. Every target computes backpropDeltas'
 * and updateLayer's exact per-element arithmetic, so which one runs
 * is invisible in the results.
 */
inline void
fusedBackUpdate(double *__restrict w, double *__restrict dw, int in,
                int out, const double *__restrict act,
                const double *__restrict dnext, double *__restrict d,
                double eta, double alpha, double *__restrict g)
{
    if (out == 1)
        fusedBackUpdateOne(w, dw, in, act, dnext[0], d, eta, alpha);
    else if (out == 16)
        fusedBackUpdateWide16(w, dw, in, act, dnext, d, eta, alpha);
    else if (out == 32)
        fusedBackUpdateWide32(w, dw, in, act, dnext, d, eta, alpha);
    else
        fusedBackUpdateWide(w, dw, in, out, act, dnext, d, eta, alpha, g);
}

/**
 * L doubles as one GCC vector, lane j holding unit L g + j of a
 * 16-unit row in vector g. Arithmetic on it is lane-wise IEEE double
 * arithmetic, and -ffp-contract=off covers vector operations too, so
 * each lane rounds exactly as the scalar kernels above do. Rows are
 * read and written through Row, the unaligned, aliasing view of L
 * doubles in an arena. No function takes or returns a vector by
 * value: a function compiled without AVX would pass it differently
 * (-Wpsabi).
 */
template <int L>
struct Lanes
{
    typedef double V __attribute__((vector_size(8 * L)));
    typedef double Row __attribute__((vector_size(8 * L), aligned(8),
                                      may_alias));
    typedef long long I __attribute__((vector_size(8 * L)));
    typedef unsigned long long U __attribute__((vector_size(8 * L)));
};

/** The L-lane rows of an arena starting at @p p. */
template <int L>
__attribute__((always_inline)) inline typename Lanes<L>::Row *
laneRows(double *p)
{
    return reinterpret_cast<typename Lanes<L>::Row *>(p);
}

/** stableSigmoid on each lane of @p v, in place: the same operations
 *  on the same constants in the same order. */
template <int L>
__attribute__((always_inline)) inline void
stableSigmoidLanes(typename Lanes<L>::V &v)
{
    using namespace sigmoid;
    using V = typename Lanes<L>::V;
    using I = typename Lanes<L>::I;
    using U = typename Lanes<L>::U;
    const V x = v;
    const V zero = {};
    const V one = zero + 1.0;
    const V clamp = zero + kClamp;
    V a = x < zero ? -x : x;
    a = a > clamp ? clamp : a;
    const V y = -a;
    const V kd = y * kLog2e + kShift;
    const V n = kd - kShift;
    V r = y - n * kLn2Hi;
    r = r - n * kLn2Lo;
    const I ki = (I)kd - std::bit_cast<int64_t>(kShift);
    const V scale = (V)((U)(ki + 1023) << 52);
    const V r2 = r * r;
    const V r4 = r2 * r2;
    const V r8 = r4 * r4;
    const V q0 = kC[0] + r * kC[1];
    const V q1 = kC[2] + r * kC[3];
    const V q2 = kC[4] + r * kC[5];
    const V q3 = kC[6] + r * kC[7];
    const V q4 = kC[8] + r * kC[9];
    const V q5 = kC[10] + r * kC[11];
    const double q6 = kC[12];
    const V t0 = q0 + r2 * q1;
    const V t1 = q2 + r2 * q3;
    const V t2 = q4 + r2 * q5;
    const V u0 = t0 + r4 * t1;
    const V u1 = t2 + r4 * q6;
    const V p = u0 + r8 * u1;
    const V t = p * scale;
    const V num = x >= zero ? one : t;
    v = num / (1.0 + t);
}

/**
 * One epoch of the default shape (one hidden layer of 16 units, one
 * output), written once over the lane count L (4 or 8 hidden units
 * per vector, G = 16 / L vectors per arena row). Per presentation it
 * runs, lane by lane, exactly the arithmetic of the layered kernels
 * the other shapes take:
 *  1. layerForwardWideBody's hidden pass (lane i % 4 takes input i,
 *     the bias added last), L units per vector;
 *  2. stableSigmoid on each hidden lane;
 *  3. layerForwardOne's output unit: dot4 over the 16 activations
 *     (lane j adds units j, 4 + j, 8 + j and 12 + j in that order),
 *     the bias, a scalar stableSigmoid;
 *  4. the output delta;
 *  5. fusedBackUpdateOne on the output weights;
 *  6. updateLayer on the hidden weights, with g = eta * d.
 * @p w0/@p dw0 are the hidden layer's [(in + 1) x 16] slabs and
 * @p w1/@p dw1 the output unit's [17] column. Sets @p nonFinite when
 * an example's error is not finite; returns the summed squared error
 * in presentation order.
 */
template <int L>
__attribute__((always_inline)) inline double
trainEpochHidden16(double *__restrict w0, double *__restrict dw0,
                   double *__restrict w1, double *__restrict dw1, int in,
                   const double *__restrict x, const double *__restrict t,
                   const uint32_t *__restrict order, size_t rows,
                   double eta, double alpha, bool *nonFinite)
{
    using V = typename Lanes<L>::V;
    using Row = typename Lanes<L>::Row;
    // Row i of the hidden slabs is G Rows, one per unit group. The
    // hidden pass sweeps the inputs once per B groups with four
    // accumulators each: both groups at eight lanes (AVX-512 has 32
    // vector registers), one group at a time at four (AVX2 has 16).
    constexpr size_t G = 16 / L;
    constexpr size_t B = L == 8 ? 2 : 1;
    const size_t n = static_cast<size_t>(in);
    double sum = 0.0;
    bool bad = false;
    for (size_t p = 0; p < rows; ++p) {
        const size_t row = order ? order[p] : p;
        const double *xr = x + row * n;

        V h[G];
        for (size_t gb = 0; gb < G; gb += B) {
            const Row *w = laneRows<L>(w0) + gb;  // stride G per input
            // Lanes start from the first strip's products, or at zero
            // when there is no full strip (n < 4).
            V a0[B] = {}, a1[B] = {}, a2[B] = {}, a3[B] = {};
            size_t i = 0;
            if (n >= 4) {
                for (size_t g = 0; g < B; ++g) {
                    a0[g] = xr[0] * w[g];
                    a1[g] = xr[1] * w[G + g];
                    a2[g] = xr[2] * w[2 * G + g];
                    a3[g] = xr[3] * w[3 * G + g];
                }
                for (i = 4; i + 4 <= n; i += 4) {
                    for (size_t g = 0; g < B; ++g) {
                        a0[g] += xr[i] * w[G * i + g];
                        a1[g] += xr[i + 1] * w[G * i + G + g];
                        a2[g] += xr[i + 2] * w[G * i + 2 * G + g];
                        a3[g] += xr[i + 3] * w[G * i + 3 * G + g];
                    }
                }
            }
            // i is a multiple of four here, so the at most three
            // remaining inputs land in lanes 0, 1 and 2.
            for (size_t g = 0; g < B; ++g) {
                if (i < n)
                    a0[g] += xr[i] * w[G * i + g];
                if (i + 1 < n)
                    a1[g] += xr[i + 1] * w[G * i + G + g];
                if (i + 2 < n)
                    a2[g] += xr[i + 2] * w[G * i + 2 * G + g];
                h[gb + g] = ((a0[g] + a1[g]) + (a2[g] + a3[g])) +
                    w[G * n + g];
            }
        }
        for (size_t g = 0; g < G; ++g)
            stableSigmoidLanes<L>(h[g]);

        Row *v1 = laneRows<L>(w1);
        Row *dv1 = laneRows<L>(dw1);
        V w1v[G], prod[G];
        for (size_t g = 0; g < G; ++g) {
            w1v[g] = v1[g];
            prod[g] = h[g] * w1v[g];
        }
        // dot4's lane j adds units j, 4 + j, 8 + j and 12 + j in that
        // order: the four products at four lanes, or the low and high
        // halves of the two at eight.
        Lanes<4>::V s;
        if constexpr (L == 4) {
            s = prod[0];
            s += prod[1];
            s += prod[2];
            s += prod[3];
        } else {
            s = __builtin_shufflevector(prod[0], prod[0], 0, 1, 2, 3);
            s += __builtin_shufflevector(prod[0], prod[0], 4, 5, 6, 7);
            s += __builtin_shufflevector(prod[1], prod[1], 0, 1, 2, 3);
            s += __builtin_shufflevector(prod[1], prod[1], 4, 5, 6, 7);
        }
        const double o =
            stableSigmoid(((s[0] + s[1]) + (s[2] + s[3])) + w1[16]);

        const double err = t[row] - o;
        const double sq = err * err;
        if (!std::isfinite(sq))
            bad = true;
        sum += sq;
        const double dOut = err * o * (1.0 - o);

        const double g0 = eta * dOut;
        V gv[G];
        for (size_t g = 0; g < G; ++g) {
            const V d = w1v[g] * dOut * h[g] * (1.0 - h[g]);
            const V update = g0 * h[g] + alpha * dv1[g];
            v1[g] = w1v[g] + update;
            dv1[g] = update;
            gv[g] = eta * d;
        }
        const double update = g0 + alpha * dw1[16];
        w1[16] += update;
        dw1[16] = update;

        Row *v0 = laneRows<L>(w0);
        Row *dv0 = laneRows<L>(dw0);
        for (size_t i = 0; i < n; ++i) {
            for (size_t g = 0; g < G; ++g) {
                const V u = gv[g] * xr[i] + alpha * dv0[G * i + g];
                v0[G * i + g] += u;
                dv0[G * i + g] = u;
            }
        }
        // The bias row: its input is 1, so g is added unmultiplied.
        for (size_t g = 0; g < G; ++g) {
            const V u = gv[g] + alpha * dv0[G * n + g];
            v0[G * n + g] += u;
            dv0[G * n + g] = u;
        }
    }
    if (bad)
        *nonFinite = true;
    return sum;
}

/** The epoch body at four lanes, for CPUs without AVX-512F. */
DSE_CLONES_AVX2 double
trainEpochHidden16x4(double *__restrict w0, double *__restrict dw0,
                     double *__restrict w1, double *__restrict dw1, int in,
                     const double *__restrict x, const double *__restrict t,
                     const uint32_t *__restrict order, size_t rows,
                     double eta, double alpha, bool *nonFinite)
{
    return trainEpochHidden16<4>(w0, dw0, w1, dw1, in, x, t, order, rows,
                                 eta, alpha, nonFinite);
}

#ifdef DSE_HAVE_LANES8
/** The epoch body at eight lanes; call it only where
 *  __builtin_cpu_supports("avx512f") holds. */
__attribute__((target("avx512f"))) double
trainEpochHidden16x8(double *__restrict w0, double *__restrict dw0,
                     double *__restrict w1, double *__restrict dw1, int in,
                     const double *__restrict x, const double *__restrict t,
                     const uint32_t *__restrict order, size_t rows,
                     double eta, double alpha, bool *nonFinite)
{
    return trainEpochHidden16<8>(w0, dw0, w1, dw1, in, x, t, order, rows,
                                 eta, alpha, nonFinite);
}
#endif

/**
 * Per-thread scratch for the layer kernels (activation ping-pong and
 * cross-unit accumulators). Grow-only, so prediction does no heap
 * work after the first call on each thread.
 */
double *
kernelScratch(size_t n)
{
    thread_local std::vector<double> buf;
    if (buf.size() < n)
        buf.resize(n);
    return buf.data();
}

/**
 * Per-thread scratch for block transposes and outputs — distinct from
 * kernelScratch so predictBatch can hold a block while predictBlockT
 * sizes its own buffers.
 */
double *
ioScratch(size_t n)
{
    thread_local std::vector<double> buf;
    if (buf.size() < n)
        buf.resize(n);
    return buf.data();
}

} // namespace

Ann::Ann(int inputs, int outputs, const AnnParams &params, Rng &rng)
    : inputs_(inputs), outputs_(outputs), params_(params)
{
    if (inputs <= 0 || outputs <= 0)
        throw std::invalid_argument("network needs inputs and outputs");
    if (params.hiddenLayers < 1 || params.hiddenUnits < 1)
        throw std::invalid_argument("network needs a hidden layer");

    size_t wOff = 0;
    size_t actOff = 0;
    auto addLayer = [&](int in, int out) {
        Layer layer;
        layer.in = in;
        layer.out = out;
        layer.w = wOff;
        layer.act = actOff;
        wOff += static_cast<size_t>(in + 1) * out;
        actOff += static_cast<size_t>(out);
        maxWidth_ = std::max(maxWidth_, out);
        layers_.push_back(layer);
    };
    int prev = inputs;
    for (int l = 0; l < params.hiddenLayers; ++l) {
        addLayer(prev, params.hiddenUnits);
        prev = params.hiddenUnits;
    }
    addLayer(prev, outputs);

    w_.resize(wOff);
    dwPrev_.assign(wOff, 0.0);
    act_.assign(actOff, 0.0);
    delta_.assign(actOff, 0.0);
    // Draw in the historical per-unit order (unit-major, bias last per
    // unit) and scatter into the input-major arena, so a given seed
    // yields the same initial weight at every logical position.
    for (const Layer &layer : layers_) {
        double *w = w_.data() + layer.w;
        const size_t o = static_cast<size_t>(layer.out);
        for (int j = 0; j < layer.out; ++j)
            for (int i = 0; i <= layer.in; ++i)
                w[static_cast<size_t>(i) * o + static_cast<size_t>(j)] =
                    rng.uniform(-params.initWeightRange,
                                params.initWeightRange);
    }
}

void
Ann::predictBlockT(const double *xT, size_t nb, double *yT) const
{
    assert(nb >= 1 && nb <= kBlock);
    const size_t width = static_cast<size_t>(maxWidth_);
    if (nb == 1) {
        // Single point: the unit-vectorized scalar kernel, which
        // follows the same per-(point, unit) lane discipline as the
        // batch kernel, so the result matches the batched path bit
        // for bit.
        double *buf = kernelScratch(6 * width);
        double *a0 = buf;
        double *a1 = buf + width;
        double *acc = buf + 2 * width;
        const double *cur = xT;
        for (size_t l = 0; l < layers_.size(); ++l) {
            const Layer &layer = layers_[l];
            double *dst = l + 1 == layers_.size() ? yT
                : (l % 2 == 0 ? a0 : a1);
            layerForwardScalar(w_.data() + layer.w, layer.in, layer.out,
                               cur, dst, acc);
            cur = dst;
        }
        return;
    }
    double *buf = kernelScratch(2 * width * kBlock);
    double *a0 = buf;
    double *a1 = buf + width * kBlock;
    const double *cur = xT;
    for (size_t l = 0; l < layers_.size(); ++l) {
        const Layer &layer = layers_[l];
        double *dst = l + 1 == layers_.size() ? yT
            : (l % 2 == 0 ? a0 : a1);
        layerForwardBatch(w_.data() + layer.w, layer.in, layer.out,
                          cur, nb, dst);
        cur = dst;
    }
}

void
Ann::predictBatch(const double *x, size_t n, double *y) const
{
    const size_t in = static_cast<size_t>(inputs_);
    const size_t out = static_cast<size_t>(outputs_);
    double *buf = ioScratch((in + out) * kBlock);
    double *xT = buf;
    double *yT = buf + in * kBlock;
    for (size_t at = 0; at < n; at += kBlock) {
        const size_t nb = std::min(kBlock, n - at);
        const double *xb = x + at * in;
        for (size_t i = 0; i < in; ++i)
            for (size_t b = 0; b < nb; ++b)
                xT[i * nb + b] = xb[b * in + i];
        predictBlockT(xT, nb, yT);
        double *yb = y + at * out;
        for (size_t b = 0; b < nb; ++b)
            for (size_t o = 0; o < out; ++o)
                yb[b * out + o] = yT[o * nb + b];
    }
}

std::vector<double>
Ann::predict(const std::vector<double> &input) const
{
    assert(static_cast<int>(input.size()) == inputs_);
    // A feature vector is its own one-column transpose, so the input
    // is read in place — no copy, and the only allocation is the
    // returned vector itself.
    std::vector<double> out(static_cast<size_t>(outputs_));
    predictBlockT(input.data(), 1, out.data());
    return out;
}

double
Ann::predictScalar(const std::vector<double> &input) const
{
    assert(static_cast<int>(input.size()) == inputs_);
    double *yT = ioScratch(static_cast<size_t>(outputs_));
    predictBlockT(input.data(), 1, yT);
    return yT[0];
}

double
Ann::trainEpoch(const double *x, const double *t, const uint32_t *order,
                size_t rows)
{
    if (layers_.size() == 2 && layers_[0].out == 16 &&
        layers_[1].out == 1) {
        static const int lanes = widestLanes();
        return trainEpochLanes(lanes, x, t, order, rows);
    }
    return trainEpochLayered(x, t, order, rows);
}

int
Ann::widestLanes()
{
#ifdef DSE_HAVE_LANES8
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx512f"))
        return 8;
#endif
    return 4;
}

double
Ann::trainEpochLanes(int lanes, const double *x, const double *t,
                     const uint32_t *order, size_t rows)
{
    assert(lanes == 4 || lanes == widestLanes());
    const Layer &hidden = layers_[0];
    const Layer &output = layers_[1];
    auto body = trainEpochHidden16x4;
#ifdef DSE_HAVE_LANES8
    if (lanes == 8)
        body = trainEpochHidden16x8;
#endif
    return body(w_.data() + hidden.w, dwPrev_.data() + hidden.w,
                w_.data() + output.w, dwPrev_.data() + output.w,
                hidden.in, x, t, order, rows, params_.learningRate,
                params_.momentum, &diverged_);
}

double
Ann::trainEpochLayered(const double *x, const double *t,
                       const uint32_t *order, size_t rows)
{
    const size_t in = static_cast<size_t>(inputs_);
    const size_t out = static_cast<size_t>(outputs_);
    double sum = 0.0;
    for (size_t r = 0; r < rows; ++r) {
        const size_t row = order ? order[r] : r;
        sum += trainExample(x + row * in, t + row * out);
    }
    return sum;
}

double
Ann::trainExample(const double *x, const double *t)
{
    // Forward, into the member activation arena (training owns it;
    // const predictions use per-thread scratch instead).
    double *acc = kernelScratch(4 * static_cast<size_t>(maxWidth_));
    const double *cur = x;
    for (size_t l = 0; l < layers_.size(); ++l) {
        const Layer &layer = layers_[l];
        layerForwardScalar(w_.data() + layer.w, layer.in, layer.out,
                           cur, act_.data() + layer.act, acc);
        cur = act_.data() + layer.act;
    }

    // Output deltas: (t - o) * o * (1 - o) for sigmoid outputs.
    double sq_error = 0.0;
    {
        const Layer &layer = layers_.back();
        const double *o = act_.data() + layer.act;
        double *d = delta_.data() + layer.act;
        for (int j = 0; j < outputs_; ++j) {
            const double oj = o[j];
            const double err = t[j] - oj;
            sq_error += err * err;
            d[j] = err * oj * (1.0 - oj);
        }
    }

    // Fused backward sweep, back to front (DESIGN.md, "Training
    // pipeline"): visiting layer l, its deltas are already known, so
    // each of its weight rows is read exactly once — forming row i's
    // contribution to the previous layer's delta from the pre-update
    // weights — and the Equation-3.2 momentum update lands on that
    // row in the same pass. Every delta still sees pre-update weights
    // and every weight sees the same operands as the historical
    // backprop-then-update loops (layer updates are independent of
    // each other), so the fusion is bit-invisible; it just halves the
    // weight- and momentum-arena traffic. acc doubles as the
    // g = eta * d scratch, as in the old update loop.
    const double eta = params_.learningRate;
    const double alpha = params_.momentum;
    for (size_t l = layers_.size(); l-- > 1;) {
        const Layer &layer = layers_[l];
        fusedBackUpdate(w_.data() + layer.w, dwPrev_.data() + layer.w,
                        layer.in, layer.out,
                        act_.data() + layers_[l - 1].act,
                        delta_.data() + layer.act,
                        delta_.data() + layers_[l - 1].act, eta, alpha,
                        acc);
    }

    // The first layer reads the example input and feeds no earlier
    // deltas: plain update.
    {
        const Layer &layer = layers_.front();
        if (layer.out == 1) {
            updateLayerOne(w_.data() + layer.w, dwPrev_.data() + layer.w,
                           layer.in, x, delta_[layer.act], eta, alpha);
        } else {
            updateLayer(w_.data() + layer.w, dwPrev_.data() + layer.w,
                        layer.in, layer.out, x,
                        delta_.data() + layer.act, eta, alpha, acc);
        }
    }
    if (!std::isfinite(sq_error))
        diverged_ = true;
    return sq_error;
}

bool
Ann::finiteWeights() const
{
    for (double w : w_) {
        if (!std::isfinite(w))
            return false;
    }
    for (double dw : dwPrev_) {
        if (!std::isfinite(dw))
            return false;
    }
    return true;
}

std::vector<double>
Ann::weights() const
{
    std::vector<double> flat;
    flat.reserve(w_.size());
    for (const Layer &layer : layers_) {
        const double *w = w_.data() + layer.w;
        const size_t o = static_cast<size_t>(layer.out);
        for (int j = 0; j < layer.out; ++j)
            for (int i = 0; i <= layer.in; ++i)
                flat.push_back(w[static_cast<size_t>(i) * o +
                                 static_cast<size_t>(j)]);
    }
    return flat;
}

void
Ann::setWeights(const std::vector<double> &flat)
{
    if (flat.size() != w_.size())
        throw std::invalid_argument("weight vector size mismatch");
    const double *src = flat.data();
    for (const Layer &layer : layers_) {
        double *w = w_.data() + layer.w;
        const size_t o = static_cast<size_t>(layer.out);
        for (int j = 0; j < layer.out; ++j)
            for (int i = 0; i <= layer.in; ++i)
                w[static_cast<size_t>(i) * o + static_cast<size_t>(j)] =
                    *src++;
    }
}

} // namespace ml
} // namespace dse
