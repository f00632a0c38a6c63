/**
 * @file
 * Fused vectorized likelihood kernels with analytic adjoints.
 *
 * Each kernel makes one pass over the observed data computing the log
 * density together with the analytic partial derivative for every
 * parameter, then records a single wide tape node (ad::Tape::pushWide)
 * carrying one edge per parameter. This is the optimization Stan's
 * `*_glm_lpdf` vectorized kernels popularized: the per-observation
 * scalar subgraph (~5-15 nodes each) collapses into one node, so the
 * tape working set the reverse sweep touches shrinks by an order of
 * magnitude while the data pass itself is unchanged.
 *
 * Every kernel is templated so each parameter can independently be a
 * plain double (fixed hyperparameter) or an ad::Var; the all-double
 * instantiation skips the adjoint bookkeeping entirely and returns the
 * plain value, keeping the value-only path (MH, slice, ADVI) fast.
 *
 * The GLM kernels accumulate the same per-observation expressions in
 * the same order as the scalar loops; the sufficient-statistic kernels
 * use algebraically equal closed forms. Either way fused and scalar
 * log densities agree to ~1e-13 relative (not bitwise), and gradients
 * likewise (the scalar tape accumulates adjoints in reverse-sweep
 * order, the kernels in forward data order).
 * tests/test_vec_kernels.cpp pins both properties.
 */
#pragma once

#include <cmath>
#include <cstddef>
#include <span>
#include <type_traits>
#include <vector>

#include "math/functions.hpp"

/**
 * Restrict qualifier for the batched kernels' hot pointers: promises
 * the SoA lane buffers do not alias the design matrix, which is what
 * lets the compiler vectorize the lane-inner loops.
 */
#if defined(__GNUC__) || defined(__clang__)
#define BAYES_RESTRICT __restrict__
#else
#define BAYES_RESTRICT
#endif

namespace bayes::math {

namespace detail {

/**
 * Collects {parent, weight} edges for one fused term and emits the wide
 * node. Parameters that are plain doubles or untracked constants
 * contribute no edge; if no parameter is tracked the result collapses
 * to a constant (no tape traffic at all).
 */
class WideTerm
{
  public:
    void reserve(std::size_t n)
    {
        parents_.reserve(n);
        weights_.reserve(n);
    }

    void
    edge(const ad::Var& v, double weight)
    {
        if (!v.tracked())
            return;
        tape_ = v.tape();
        parents_.push_back(v.id());
        weights_.push_back(weight);
    }

    void edge(double, double) {}

    ad::Var
    emit(double value, ad::OpClass cls = ad::OpClass::Special) const
    {
        if (!tape_)
            return ad::Var(value);
        return ad::Var(tape_, value,
                       tape_->pushWide(parents_, weights_, cls));
    }

  private:
    std::vector<ad::NodeId> parents_;
    std::vector<double> weights_;
    ad::Tape* tape_ = nullptr;
};

/** Values of a (double or Var) parameter span, for the fused data pass. */
template <typename T>
inline std::vector<double>
values(std::span<const T> xs)
{
    std::vector<double> out(xs.size());
    for (std::size_t i = 0; i < xs.size(); ++i)
        out[i] = valueOf(xs[i]);
    return out;
}

/**
 * Batched counterpart of WideTerm: collects the {parent, weight} edges
 * of K lanes' fused terms (lane-major, every lane contributing the same
 * parameters in the same order) and emits them as one
 * ad::Tape::pushWideBatch call — K consecutive nodes over one
 * contiguous edge block.
 */
class BatchWideTerm
{
  public:
    explicit BatchWideTerm(std::size_t lanes) : lanes_(lanes) {}

    void
    reserve(std::size_t perLane)
    {
        parents_.reserve(lanes_ * perLane);
        weights_.reserve(lanes_ * perLane);
    }

    void
    edge(const ad::Var& v, double weight)
    {
        if (!v.tracked())
            return;
        tape_ = v.tape();
        parents_.push_back(v.id());
        weights_.push_back(weight);
    }

    void edge(double, double) {}

    /** Emit the batch; lane k of @p out becomes the node id + k. */
    template <typename TOut>
    void
    emit(std::span<const double> values, std::span<TOut> out,
         ad::OpClass cls = ad::OpClass::Special) const
    {
        BAYES_ASSERT(values.size() == lanes_ && out.size() == lanes_);
        if constexpr (std::is_same_v<TOut, ad::Var>) {
            if (!tape_) {
                for (std::size_t k = 0; k < lanes_; ++k)
                    out[k] = ad::Var(values[k]);
                return;
            }
            // Untracked parameters are skipped per edge() call, so a
            // uniform parameter structure across lanes is required for
            // the lane-major block to line up.
            BAYES_CHECK(parents_.size() % lanes_ == 0,
                        "batched term has ragged lane edge counts");
            const ad::NodeId base = tape_->pushWideBatch(
                parents_, weights_, static_cast<std::uint32_t>(lanes_),
                cls);
            for (std::size_t k = 0; k < lanes_; ++k)
                out[k] = ad::Var(tape_, values[k],
                                 base + static_cast<ad::NodeId>(k));
        } else {
            for (std::size_t k = 0; k < lanes_; ++k)
                out[k] = values[k];
        }
    }

  private:
    std::size_t lanes_;
    std::vector<ad::NodeId> parents_;
    std::vector<double> weights_;
    ad::Tape* tape_ = nullptr;
};

/**
 * The logistic quantities of one logit x from a single exp and log1p:
 * each field is bitwise equal to the named special-function call, so
 * the Bernoulli and binomial kernels see exactly the per-row terms of
 * the scalar path at half the transcendental cost.
 */
struct Logistic
{
    double softplus;    ///< log1pExp(x)  = -log(1 - invLogit(x))
    double softplusNeg; ///< log1pExp(-x) = -log invLogit(x)
    double p;           ///< invLogit(x)
    double q;           ///< invLogit(-x) = 1 - p without cancellation
};

inline Logistic
logistic(double x)
{
    const double e = std::exp(-std::fabs(x));
    const double l = std::log1p(e);
    if (x > 0.0)
        return {x + l, l, 1.0 / (1.0 + e), e / (1.0 + e)};
    return {l, -x + l, e / (1.0 + e), 1.0 / (1.0 + e)};
}

} // namespace detail

// ---------------------------------------------------------------------
// Normal family
// ---------------------------------------------------------------------

/**
 * Sum of Normal(mu, sigma) log densities over a data vector, fused via
 * the (shifted) sufficient statistics n, Σ(y-μ), Σ(y-μ)².
 */
template <typename TMu, typename TSigma>
promote_t<TMu, TSigma>
normal_lpdf_vec(std::span<const double> ys, const TMu& mu,
                const TSigma& sigma)
{
    using R = promote_t<TMu, TSigma>;
    const double muV = valueOf(mu);
    const double inv = 1.0 / valueOf(sigma);
    const double n = static_cast<double>(ys.size());
    double s1 = 0.0, s2 = 0.0;
    for (double y : ys) {
        const double d = y - muV;
        s1 += d;
        s2 += d * d;
    }
    const double value = -0.5 * s2 * inv * inv
        - n * (std::log(valueOf(sigma)) + kLogSqrtTwoPi);
    if constexpr (std::is_same_v<R, ad::Var>) {
        detail::WideTerm t;
        t.reserve(2);
        t.edge(mu, s1 * inv * inv);
        t.edge(sigma, s2 * inv * inv * inv - n * inv);
        return t.emit(value);
    } else {
        return value;
    }
}

/**
 * Sum of Normal(mu, sigma) log densities over a *parameter* vector
 * (e.g. a hierarchical prior over group effects): one wide node with an
 * edge per element plus the location/scale edges.
 */
template <typename TMu, typename TSigma>
ad::Var
normal_lpdf_vec(std::span<const ad::Var> ys, const TMu& mu,
                const TSigma& sigma)
{
    const double muV = valueOf(mu);
    const double inv = 1.0 / valueOf(sigma);
    const double n = static_cast<double>(ys.size());
    detail::WideTerm t;
    t.reserve(ys.size() + 2);
    double s1 = 0.0, s2 = 0.0;
    for (const ad::Var& y : ys) {
        const double d = y.value() - muV;
        s1 += d;
        s2 += d * d;
        t.edge(y, -d * inv * inv);
    }
    const double value = -0.5 * s2 * inv * inv
        - n * (std::log(valueOf(sigma)) + kLogSqrtTwoPi);
    t.edge(mu, s1 * inv * inv);
    t.edge(sigma, s2 * inv * inv * inv - n * inv);
    return t.emit(value);
}

/**
 * Sum of Normal(mu_i, sigma) log densities with a per-observation
 * location parameter (e.g. data around a latent function), one shared
 * scale.
 */
template <typename TMu, typename TSigma>
promote_t<TMu, TSigma>
normal_lpdf_vec(std::span<const double> ys, std::span<const TMu> mus,
                const TSigma& sigma)
{
    using R = promote_t<TMu, TSigma>;
    BAYES_ASSERT(ys.size() == mus.size());
    const double inv = 1.0 / valueOf(sigma);
    const double n = static_cast<double>(ys.size());
    detail::WideTerm t;
    if constexpr (std::is_same_v<R, ad::Var>)
        t.reserve(mus.size() + 1);
    double ssz = 0.0;
    for (std::size_t i = 0; i < ys.size(); ++i) {
        const double z = (ys[i] - valueOf(mus[i])) * inv;
        ssz += z * z;
        if constexpr (std::is_same_v<R, ad::Var>)
            t.edge(mus[i], z * inv);
    }
    const double value =
        -0.5 * ssz - n * (std::log(valueOf(sigma)) + kLogSqrtTwoPi);
    if constexpr (std::is_same_v<R, ad::Var>) {
        t.edge(sigma, ssz * inv - n * inv);
        return t.emit(value);
    } else {
        return value;
    }
}

/** Sum of standard normal log densities over a parameter vector. */
inline ad::Var
std_normal_lpdf_vec(std::span<const ad::Var> zs)
{
    detail::WideTerm t;
    t.reserve(zs.size());
    double ss = 0.0;
    for (const ad::Var& z : zs) {
        ss += z.value() * z.value();
        t.edge(z, -z.value());
    }
    const double value =
        -0.5 * ss - static_cast<double>(zs.size()) * kLogSqrtTwoPi;
    return t.emit(value);
}

/** Value-only twin of std_normal_lpdf_vec for the double path. */
inline double
std_normal_lpdf_vec(std::span<const double> zs)
{
    double ss = 0.0;
    for (double z : zs)
        ss += z * z;
    return -0.5 * ss - static_cast<double>(zs.size()) * kLogSqrtTwoPi;
}

// ---------------------------------------------------------------------
// Exponential / Gamma / Negative binomial
// ---------------------------------------------------------------------

/** Sum of Exponential(rate) log densities over a parameter vector. */
template <typename TRate>
ad::Var
exponential_lpdf_vec(std::span<const ad::Var> ys, const TRate& rate)
{
    const double rateV = valueOf(rate);
    const double n = static_cast<double>(ys.size());
    detail::WideTerm t;
    t.reserve(ys.size() + 1);
    double sy = 0.0;
    for (const ad::Var& y : ys) {
        sy += y.value();
        t.edge(y, -rateV);
    }
    const double value = n * std::log(rateV) - rateV * sy;
    t.edge(rate, n / rateV - sy);
    return t.emit(value);
}

/** Sum of Exponential(rate) log densities over a data vector. */
template <typename TRate>
promote_t<TRate>
exponential_lpdf_vec(std::span<const double> ys, const TRate& rate)
{
    using R = promote_t<TRate>;
    const double rateV = valueOf(rate);
    const double n = static_cast<double>(ys.size());
    double sy = 0.0;
    for (double y : ys)
        sy += y;
    const double value = n * std::log(rateV) - rateV * sy;
    if constexpr (std::is_same_v<R, ad::Var>) {
        detail::WideTerm t;
        t.edge(rate, n / rateV - sy);
        return t.emit(value);
    } else {
        return value;
    }
}

/**
 * Sum of Gamma(shape, rate) log densities over a data vector, fused via
 * the sufficient statistics n, Σlog y, Σy.
 */
template <typename TShape, typename TRate>
promote_t<TShape, TRate>
gamma_lpdf_vec(std::span<const double> ys, const TShape& shape,
               const TRate& rate)
{
    using R = promote_t<TShape, TRate>;
    const double shapeV = valueOf(shape);
    const double rateV = valueOf(rate);
    const double n = static_cast<double>(ys.size());
    double slog = 0.0, sy = 0.0;
    for (double y : ys) {
        slog += std::log(y);
        sy += y;
    }
    const double value = n * (shapeV * std::log(rateV) - lgammaSafe(shapeV))
        + (shapeV - 1.0) * slog - rateV * sy;
    if constexpr (std::is_same_v<R, ad::Var>) {
        detail::WideTerm t;
        t.reserve(2);
        t.edge(shape, n * (std::log(rateV) - digamma(shapeV)) + slog);
        t.edge(rate, n * shapeV / rateV - sy);
        return t.emit(value);
    } else {
        return value;
    }
}

/**
 * Sum of neg_binomial_2(mu, phi) log masses over a count vector
 * (mean/overdispersion parameterization).
 */
template <typename TMu, typename TPhi>
promote_t<TMu, TPhi>
neg_binomial_2_lpmf_vec(std::span<const long> ys, const TMu& mu,
                        const TPhi& phi)
{
    using R = promote_t<TMu, TPhi>;
    const double muV = valueOf(mu);
    const double phiV = valueOf(phi);
    const double logMu = std::log(muV);
    const double logPhi = std::log(phiV);
    const double logMuPhi = std::log(muV + phiV);
    const double lgPhi = lgammaSafe(phiV);
    const double digPhi = digamma(phiV);
    double value = 0.0, dMu = 0.0, dPhi = 0.0;
    for (long y : ys) {
        const double ky = static_cast<double>(y);
        value += lgammaSafe(ky + phiV) - lgammaSafe(ky + 1.0) - lgPhi
            + phiV * (logPhi - logMuPhi) + ky * (logMu - logMuPhi);
        if constexpr (std::is_same_v<R, ad::Var>) {
            dMu += ky / muV - (ky + phiV) / (muV + phiV);
            dPhi += digamma(ky + phiV) - digPhi + logPhi - logMuPhi + 1.0
                - (ky + phiV) / (muV + phiV);
        }
    }
    if constexpr (std::is_same_v<R, ad::Var>) {
        detail::WideTerm t;
        t.reserve(2);
        t.edge(mu, dMu);
        t.edge(phi, dPhi);
        return t.emit(value);
    } else {
        return value;
    }
}

// ---------------------------------------------------------------------
// GLM kernels: value + all partials in one pass over the design matrix
// ---------------------------------------------------------------------

/**
 * Bernoulli-logit GLM with optional varying intercepts: sum of
 * bernoulli_logit_lpmf(y_i, alpha_{g_i} + x_i·β) over rows of the
 * row-major n×K design matrix @p x.
 * @param group  per-row intercept index; empty means alphas[0] for all
 * Residuals r_i = y_i - invLogit(eta_i) give ∂α_g = Σ_{i: g_i=g} r_i
 * and ∂β_k = Σ r_i x_ik. A group with no rows gets a zero edge.
 */
template <typename TAlpha, typename TBeta>
promote_t<TAlpha, TBeta>
bernoulli_logit_glm_lpmf(std::span<const int> ys,
                         std::span<const double> x,
                         std::span<const int> group,
                         std::span<const TAlpha> alphas,
                         std::span<const TBeta> betas)
{
    using R = promote_t<TAlpha, TBeta>;
    const std::size_t n = ys.size();
    const std::size_t numK = betas.size();
    BAYES_ASSERT(x.size() == n * numK);
    BAYES_ASSERT(group.empty() || group.size() >= n);
    BAYES_ASSERT(!alphas.empty());
    const std::vector<double> alphaV = detail::values(alphas);
    const std::vector<double> betaV = detail::values(betas);
    double value = 0.0;
    std::vector<double> dAlpha, dBeta;
    if constexpr (std::is_same_v<R, ad::Var>) {
        dAlpha.assign(alphas.size(), 0.0);
        dBeta.assign(numK, 0.0);
    }
    for (std::size_t i = 0; i < n; ++i) {
        const std::size_t g =
            group.empty() ? 0 : static_cast<std::size_t>(group[i]);
        const double* row = x.data() + i * numK;
        double eta = alphaV[g];
        for (std::size_t k = 0; k < numK; ++k)
            eta += betaV[k] * row[k];
        const detail::Logistic lg = detail::logistic(eta);
        value += ys[i] ? -lg.softplusNeg : -lg.softplus;
        if constexpr (std::is_same_v<R, ad::Var>) {
            const double r = static_cast<double>(ys[i]) - lg.p;
            dAlpha[g] += r;
            for (std::size_t k = 0; k < numK; ++k)
                dBeta[k] += r * row[k];
        }
    }
    if constexpr (std::is_same_v<R, ad::Var>) {
        detail::WideTerm t;
        t.reserve(alphas.size() + numK);
        for (std::size_t g = 0; g < alphas.size(); ++g)
            t.edge(alphas[g], dAlpha[g]);
        for (std::size_t k = 0; k < numK; ++k)
            t.edge(betas[k], dBeta[k]);
        return t.emit(value);
    } else {
        return value;
    }
}

/** Bernoulli-logit GLM with one shared intercept @p alpha. */
template <typename TAlpha, typename TBeta>
promote_t<TAlpha, TBeta>
bernoulli_logit_glm_lpmf(std::span<const int> ys,
                         std::span<const double> x, const TAlpha& alpha,
                         std::span<const TBeta> betas)
{
    return bernoulli_logit_glm_lpmf(ys, x, std::span<const int>(),
                                    std::span<const TAlpha>(&alpha, 1),
                                    betas);
}

/**
 * Poisson log-link GLM with optional varying intercepts and a data
 * offset: sum of poisson_log_lpmf(y_i, alpha_{g_i} + x_i·β + o_i).
 * @param group   per-row intercept index; empty means alphas[0] for all
 * @param offset  per-row additive data offset (e.g. log exposure); may
 *                be empty
 * Residuals r_i = y_i - exp(eta_i) give ∂α_g = Σ_{i: g_i=g} r_i and
 * ∂β_k = Σ r_i x_ik.
 */
template <typename TAlpha, typename TBeta>
promote_t<TAlpha, TBeta>
poisson_log_glm_lpmf(std::span<const long> ys, std::span<const double> x,
                     std::span<const int> group,
                     std::span<const double> offset,
                     std::span<const TAlpha> alphas,
                     std::span<const TBeta> betas)
{
    using R = promote_t<TAlpha, TBeta>;
    const std::size_t n = ys.size();
    const std::size_t numK = betas.size();
    BAYES_ASSERT(x.size() == n * numK);
    BAYES_ASSERT(group.empty() || group.size() >= n);
    BAYES_ASSERT(offset.empty() || offset.size() >= n);
    BAYES_ASSERT(!alphas.empty());
    const std::vector<double> alphaV = detail::values(alphas);
    const std::vector<double> betaV = detail::values(betas);
    double value = 0.0;
    std::vector<double> dAlpha, dBeta;
    if constexpr (std::is_same_v<R, ad::Var>) {
        dAlpha.assign(alphas.size(), 0.0);
        dBeta.assign(numK, 0.0);
    }
    for (std::size_t i = 0; i < n; ++i) {
        const std::size_t g =
            group.empty() ? 0 : static_cast<std::size_t>(group[i]);
        const double* row = x.data() + i * numK;
        double eta = alphaV[g];
        for (std::size_t k = 0; k < numK; ++k)
            eta += betaV[k] * row[k];
        if (!offset.empty())
            eta += offset[i];
        const double expEta = std::exp(eta);
        const double ky = static_cast<double>(ys[i]);
        value += ky * eta - expEta - lgammaSafe(ky + 1.0);
        if constexpr (std::is_same_v<R, ad::Var>) {
            const double r = ky - expEta;
            dAlpha[g] += r;
            for (std::size_t k = 0; k < numK; ++k)
                dBeta[k] += r * row[k];
        }
    }
    if constexpr (std::is_same_v<R, ad::Var>) {
        detail::WideTerm t;
        t.reserve(alphas.size() + numK);
        for (std::size_t g = 0; g < alphas.size(); ++g)
            t.edge(alphas[g], dAlpha[g]);
        for (std::size_t k = 0; k < numK; ++k)
            t.edge(betas[k], dBeta[k]);
        return t.emit(value);
    } else {
        return value;
    }
}

/**
 * Normal identity-link GLM with optional varying intercepts: sum of
 * normal_lpdf(y_i, alpha_{g_i} + x_i·β, sigma).
 * @param group  per-row intercept index; empty means alphas[0] for all
 * With z_i = (y_i - mu_i)/sigma: ∂α_g = Σ_{i: g_i=g} z_i/σ, ∂β_k = Σ
 * z_i x_ik/σ, ∂σ = Σ (z_i² - 1)/σ. A group with no rows gets a zero
 * edge.
 */
template <typename TAlpha, typename TBeta, typename TSigma>
promote_t<TAlpha, TBeta, TSigma>
normal_id_glm_lpdf(std::span<const double> ys, std::span<const double> x,
                   std::span<const int> group,
                   std::span<const TAlpha> alphas,
                   std::span<const TBeta> betas, const TSigma& sigma)
{
    using R = promote_t<TAlpha, TBeta, TSigma>;
    const std::size_t n = ys.size();
    const std::size_t numK = betas.size();
    BAYES_ASSERT(x.size() == n * numK);
    BAYES_ASSERT(group.empty() || group.size() >= n);
    BAYES_ASSERT(!alphas.empty());
    const double inv = 1.0 / valueOf(sigma);
    const double logSigma = std::log(valueOf(sigma));
    const std::vector<double> alphaV = detail::values(alphas);
    const std::vector<double> betaV = detail::values(betas);
    double value = 0.0;
    double dSigma = 0.0;
    std::vector<double> dAlpha, dBeta;
    if constexpr (std::is_same_v<R, ad::Var>) {
        dAlpha.assign(alphas.size(), 0.0);
        dBeta.assign(numK, 0.0);
    }
    for (std::size_t i = 0; i < n; ++i) {
        const std::size_t g =
            group.empty() ? 0 : static_cast<std::size_t>(group[i]);
        const double* row = x.data() + i * numK;
        double mu = alphaV[g];
        for (std::size_t k = 0; k < numK; ++k)
            mu += betaV[k] * row[k];
        const double z = (ys[i] - mu) * inv;
        value += -0.5 * z * z - logSigma - kLogSqrtTwoPi;
        if constexpr (std::is_same_v<R, ad::Var>) {
            const double rs = z * inv;
            dAlpha[g] += rs;
            for (std::size_t k = 0; k < numK; ++k)
                dBeta[k] += rs * row[k];
            dSigma += (z * z - 1.0) * inv;
        }
    }
    if constexpr (std::is_same_v<R, ad::Var>) {
        detail::WideTerm t;
        t.reserve(alphas.size() + numK + 1);
        for (std::size_t g = 0; g < alphas.size(); ++g)
            t.edge(alphas[g], dAlpha[g]);
        for (std::size_t k = 0; k < numK; ++k)
            t.edge(betas[k], dBeta[k]);
        t.edge(sigma, dSigma);
        return t.emit(value);
    } else {
        return value;
    }
}

/** Normal identity-link GLM with one shared intercept @p alpha. */
template <typename TAlpha, typename TBeta, typename TSigma>
promote_t<TAlpha, TBeta, TSigma>
normal_id_glm_lpdf(std::span<const double> ys, std::span<const double> x,
                   const TAlpha& alpha, std::span<const TBeta> betas,
                   const TSigma& sigma)
{
    return normal_id_glm_lpdf(ys, x, std::span<const int>(),
                              std::span<const TAlpha>(&alpha, 1), betas,
                              sigma);
}

/**
 * Bernoulli-logit GLM on an affinely rescaled score: sum of
 * bernoulli_logit_lpmf(y_i, scale * (x_i·w - shift)). With residuals
 * r_i as above: ∂w_k = Σ r_i·scale·x_ik, ∂scale = Σ r_i (x_i·w -
 * shift), ∂shift = -scale Σ r_i.
 */
template <typename TW, typename TScale, typename TShift>
promote_t<TW, TScale, TShift>
bernoulli_logit_scaled_glm_lpmf(std::span<const int> ys,
                                std::span<const double> x,
                                std::span<const TW> ws,
                                const TScale& scale, const TShift& shift)
{
    using R = promote_t<TW, TScale, TShift>;
    const std::size_t n = ys.size();
    const std::size_t numK = ws.size();
    BAYES_ASSERT(x.size() == n * numK);
    const double scaleV = valueOf(scale);
    const double shiftV = valueOf(shift);
    const std::vector<double> wV = detail::values(ws);
    double value = 0.0;
    double dScale = 0.0, dShift = 0.0;
    std::vector<double> dW;
    if constexpr (std::is_same_v<R, ad::Var>)
        dW.assign(numK, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
        const double* row = x.data() + i * numK;
        double score = 0.0;
        for (std::size_t k = 0; k < numK; ++k)
            score += wV[k] * row[k];
        const double eta = scaleV * (score - shiftV);
        const detail::Logistic lg = detail::logistic(eta);
        value += ys[i] ? -lg.softplusNeg : -lg.softplus;
        if constexpr (std::is_same_v<R, ad::Var>) {
            const double r = static_cast<double>(ys[i]) - lg.p;
            for (std::size_t k = 0; k < numK; ++k)
                dW[k] += r * scaleV * row[k];
            dScale += r * (score - shiftV);
            dShift -= r * scaleV;
        }
    }
    if constexpr (std::is_same_v<R, ad::Var>) {
        detail::WideTerm t;
        t.reserve(numK + 2);
        for (std::size_t k = 0; k < numK; ++k)
            t.edge(ws[k], dW[k]);
        t.edge(scale, dScale);
        t.edge(shift, dShift);
        return t.emit(value);
    } else {
        return value;
    }
}

// ---------------------------------------------------------------------
// Binomial-logit kernels over aggregated counts
// ---------------------------------------------------------------------

/**
 * Σ lchoose(n_i, y_i): the data-only normalizer of
 * binomial_logit_lpmf_vec. It costs three lgamma calls per cell, so
 * callers with fixed data compute it once, not per evaluation.
 */
inline double
binomial_lchoose_sum(std::span<const long> ys, std::span<const long> ns)
{
    BAYES_ASSERT(ys.size() == ns.size());
    double sum = 0.0;
    for (std::size_t i = 0; i < ys.size(); ++i)
        sum += lchoose(static_cast<double>(ns[i]),
                       static_cast<double>(ys[i]));
    return sum;
}

/**
 * Sum of binomial_logit_lpmf(y_i | n_i, eta_i) over cells, each with
 * its own logit: lchooseSum - Σ [y_i log1pExp(-eta_i) + (n_i - y_i)
 * log1pExp(eta_i)], with ∂eta_i = y_i - n_i invLogit(eta_i).
 * A cell with n_i == 0 contributes nothing and records no edge.
 * @param lchooseSum  binomial_lchoose_sum(ys, ns)
 */
template <typename TEta>
promote_t<TEta>
binomial_logit_lpmf_vec(std::span<const long> ys, std::span<const long> ns,
                        std::span<const TEta> etas, double lchooseSum)
{
    using R = promote_t<TEta>;
    BAYES_ASSERT(ys.size() == ns.size() && ys.size() == etas.size());
    detail::WideTerm t;
    if constexpr (std::is_same_v<R, ad::Var>)
        t.reserve(etas.size());
    double value = lchooseSum;
    for (std::size_t i = 0; i < ys.size(); ++i) {
        if (ns[i] == 0)
            continue;
        const double ky = static_cast<double>(ys[i]);
        const double ny = static_cast<double>(ns[i]);
        const detail::Logistic l = detail::logistic(valueOf(etas[i]));
        value += -ky * l.softplusNeg - (ny - ky) * l.softplus;
        if constexpr (std::is_same_v<R, ad::Var>)
            t.edge(etas[i], ky * l.q - (ny - ky) * l.p);
    }
    if constexpr (std::is_same_v<R, ad::Var>)
        return t.emit(value);
    else
        return value;
}

/**
 * Zero-inflated (occupancy) binomial-logit likelihood of a species ×
 * site detection table, in closed form from per-species histograms.
 * Species s occupies a site with probability psi_s = invLogit(occ_s)
 * and, where present, is detected on each of @p trials visits with
 * probability p_s = invLogit(det_s). A site with c > 0 detections
 * implies presence and contributes log psi_s + binomial_logit_lpmf(c |
 * trials, det_s); a site with none mixes occupied-but-missed and
 * absent: logSumExp(log psi_s + trials·log(1 - p_s), log(1 - psi_s)).
 * Sites with the same count contribute the same term, so each species
 * costs one pass over its trials + 1 histogram bins and two edges
 * (occ_s, det_s), whatever the number of sites.
 * @param hist  row-major [species][c]: sites with c detections,
 *              c = 0..trials
 */
template <typename TOcc, typename TDet>
promote_t<TOcc, TDet>
occupancy_binomial_logit_lpmf_vec(std::span<const long> hist, long trials,
                                  std::span<const TOcc> occ,
                                  std::span<const TDet> det)
{
    using R = promote_t<TOcc, TDet>;
    BAYES_ASSERT(trials >= 0 && det.size() == occ.size());
    const std::size_t numS = occ.size();
    const std::size_t bins = static_cast<std::size_t>(trials) + 1;
    BAYES_ASSERT(hist.size() == numS * bins);
    const double nT = static_cast<double>(trials);
    std::vector<double> lc(bins);
    for (std::size_t c = 0; c < bins; ++c)
        lc[c] = lchoose(nT, static_cast<double>(c));
    detail::WideTerm t;
    if constexpr (std::is_same_v<R, ad::Var>)
        t.reserve(2 * numS);
    double value = 0.0;
    for (std::size_t s = 0; s < numS; ++s) {
        const long* h = hist.data() + s * bins;
        double nPos = 0.0, sumC = 0.0, lcSum = 0.0;
        for (std::size_t c = 1; c < bins; ++c) {
            const double hc = static_cast<double>(h[c]);
            nPos += hc;
            sumC += static_cast<double>(c) * hc;
            lcSum += hc * lc[c];
        }
        const double n0 = static_cast<double>(h[0]);
        const detail::Logistic o = detail::logistic(valueOf(occ[s]));
        const detail::Logistic d = detail::logistic(valueOf(det[s]));
        const double logPsi = -o.softplusNeg;
        // Detected sites: log psi + Σ_c h_c binomial_logit_lpmf(c | T, det).
        value += nPos * logPsi + lcSum - sumC * d.softplusNeg
            - (nPos * nT - sumC) * d.softplus;
        double dOcc = nPos * o.q;
        double dDet = sumC * d.q - (nPos * nT - sumC) * d.p;
        if (n0 > 0.0) {
            // Undetected sites: m = logSumExp(a, b) with a = log psi +
            // log(1 - p)^T and b = log(1 - psi), in the max-shifted
            // form of the scalar logSumExp. The mixture weights wA =
            // exp(a - m) and wB = exp(b - m) give ∂occ = wA (1 - psi) -
            // wB psi and ∂det = -wA T p.
            const double a = logPsi + lc[0] - nT * d.softplus;
            const double b = -o.softplus;
            double m = 0.0, wA = 0.0, wB = 0.0;
            if (a > b) {
                const detail::Logistic w = detail::logistic(b - a);
                m = a + w.softplus;
                wA = w.q;
                wB = w.p;
            } else {
                const detail::Logistic w = detail::logistic(a - b);
                m = b + w.softplus;
                wA = w.p;
                wB = w.q;
            }
            value += n0 * m;
            dOcc += n0 * (wA * o.q - wB * o.p);
            dDet -= n0 * wA * nT * d.p;
        }
        if constexpr (std::is_same_v<R, ad::Var>) {
            t.edge(occ[s], dOcc);
            t.edge(det[s], dDet);
        }
    }
    if constexpr (std::is_same_v<R, ad::Var>)
        return t.emit(value);
    else
        return value;
}

// ---------------------------------------------------------------------
// Weighted sums
// ---------------------------------------------------------------------

/**
 * Weighted sum Σ w_i v_i of tracked scalars with data weights as one
 * wide node (∂v_i = w_i). Collapses repeated likelihood contributions
 * (e.g. the capture-history terms of the survival model, where w_i
 * counts how many individuals share term v_i).
 */
inline ad::Var
dot_vec(std::span<const ad::Var> vs, std::span<const double> ws)
{
    BAYES_ASSERT(vs.size() == ws.size());
    detail::WideTerm t;
    t.reserve(vs.size());
    double value = 0.0;
    for (std::size_t i = 0; i < vs.size(); ++i) {
        value += ws[i] * vs[i].value();
        t.edge(vs[i], ws[i]);
    }
    return t.emit(value, ad::OpClass::Mul);
}

/** Value-only twin of dot_vec for the double path. */
inline double
dot_vec(std::span<const double> vs, std::span<const double> ws)
{
    BAYES_ASSERT(vs.size() == ws.size());
    double value = 0.0;
    for (std::size_t i = 0; i < vs.size(); ++i)
        value += ws[i] * vs[i];
    return value;
}

// ---------------------------------------------------------------------
// Batched SoA kernels: K parameter lanes, one pass over the shared data
//
// Each *_batch kernel evaluates K independent parameter points against
// the same observed data in a single pass. Parameter lanes arrive
// lane-major (lane k's coefficients contiguous at [k*numK, (k+1)*numK))
// and are transposed into coordinate-major SoA value buffers, so the
// hot loops run data-outer / lane-inner over restrict-qualified,
// branch-free strides and auto-vectorize across lanes.
//
// Per lane, every accumulator is updated by exactly the arithmetic of
// the single-point kernel above, in the same order — vectorizing across
// lanes never reorders a lane's own floating-point chain — so lane k's
// value and adjoint weights are bitwise identical to a single-point
// call at that lane's parameters. The adjoints of all K lanes are
// recorded as one ad::Tape::pushWideBatch block.
// ---------------------------------------------------------------------

/**
 * Batched normal_lpdf_vec over a data vector: lane k sums
 * normal_lpdf(y_i, mus[k], sigmas[k]) over all i in one pass over ys.
 */
template <typename TMu, typename TSigma>
void
normal_lpdf_vec_batch(std::span<const double> ys,
                      std::span<const TMu> mus,
                      std::span<const TSigma> sigmas,
                      std::span<promote_t<TMu, TSigma>> out)
{
    using R = promote_t<TMu, TSigma>;
    const std::size_t lanes = out.size();
    BAYES_ASSERT(mus.size() == lanes && sigmas.size() == lanes);
    const std::vector<double> muV = detail::values(mus);
    std::vector<double> inv(lanes);
    for (std::size_t k = 0; k < lanes; ++k)
        inv[k] = 1.0 / valueOf(sigmas[k]);
    const double n = static_cast<double>(ys.size());
    std::vector<double> s1(lanes, 0.0), s2(lanes, 0.0);
    {
        const double* BAYES_RESTRICT mv = muV.data();
        double* BAYES_RESTRICT a1 = s1.data();
        double* BAYES_RESTRICT a2 = s2.data();
        for (const double y : ys) {
            for (std::size_t k = 0; k < lanes; ++k) {
                const double d = y - mv[k];
                a1[k] += d;
                a2[k] += d * d;
            }
        }
    }
    std::vector<double> value(lanes);
    for (std::size_t k = 0; k < lanes; ++k)
        value[k] = -0.5 * s2[k] * inv[k] * inv[k]
            - n * (std::log(valueOf(sigmas[k])) + kLogSqrtTwoPi);
    if constexpr (std::is_same_v<R, ad::Var>) {
        detail::BatchWideTerm t(lanes);
        t.reserve(2);
        for (std::size_t k = 0; k < lanes; ++k) {
            t.edge(mus[k], s1[k] * inv[k] * inv[k]);
            t.edge(sigmas[k],
                   s2[k] * inv[k] * inv[k] * inv[k] - n * inv[k]);
        }
        t.emit(value, out);
    } else {
        for (std::size_t k = 0; k < lanes; ++k)
            out[k] = value[k];
    }
}

/**
 * Batched Bernoulli-logit GLM: lane k evaluates
 * bernoulli_logit_glm_lpmf(ys, x, alphas[k], betas lane k) — K
 * intercept/coefficient sets against one pass over the design matrix.
 * @param betas  lane-major coefficients, lane k at [k*numK, (k+1)*numK)
 */
template <typename TAlpha, typename TBeta>
void
bernoulli_logit_glm_lpmf_batch(std::span<const int> ys,
                               std::span<const double> x,
                               std::span<const TAlpha> alphas,
                               std::span<const TBeta> betas,
                               std::size_t numK,
                               std::span<promote_t<TAlpha, TBeta>> out)
{
    using R = promote_t<TAlpha, TBeta>;
    const std::size_t lanes = out.size();
    const std::size_t n = ys.size();
    BAYES_ASSERT(alphas.size() == lanes && betas.size() == lanes * numK);
    BAYES_ASSERT(x.size() == n * numK);
    const std::vector<double> alphaV = detail::values(alphas);
    std::vector<double> betaV(numK * lanes); // SoA: [coef][lane]
    for (std::size_t k = 0; k < lanes; ++k)
        for (std::size_t j = 0; j < numK; ++j)
            betaV[j * lanes + k] = valueOf(betas[k * numK + j]);
    std::vector<double> value(lanes, 0.0), eta(lanes), r;
    std::vector<double> dAlpha, dBeta;
    if constexpr (std::is_same_v<R, ad::Var>) {
        r.resize(lanes);
        dAlpha.assign(lanes, 0.0);
        dBeta.assign(numK * lanes, 0.0);
    }
    for (std::size_t i = 0; i < n; ++i) {
        const double* BAYES_RESTRICT row = x.data() + i * numK;
        double* BAYES_RESTRICT e = eta.data();
        for (std::size_t k = 0; k < lanes; ++k)
            e[k] = alphaV[k];
        for (std::size_t j = 0; j < numK; ++j) {
            const double xj = row[j];
            const double* BAYES_RESTRICT bj = betaV.data() + j * lanes;
            for (std::size_t k = 0; k < lanes; ++k)
                e[k] += bj[k] * xj;
        }
        const int y = ys[i];
        for (std::size_t k = 0; k < lanes; ++k) {
            const detail::Logistic lg = detail::logistic(e[k]);
            value[k] += y ? -lg.softplusNeg : -lg.softplus;
            if constexpr (std::is_same_v<R, ad::Var>)
                r[k] = static_cast<double>(y) - lg.p;
        }
        if constexpr (std::is_same_v<R, ad::Var>) {
            const double* BAYES_RESTRICT rr = r.data();
            double* BAYES_RESTRICT da = dAlpha.data();
            for (std::size_t k = 0; k < lanes; ++k)
                da[k] += rr[k];
            for (std::size_t j = 0; j < numK; ++j) {
                const double xj = row[j];
                double* BAYES_RESTRICT dbj = dBeta.data() + j * lanes;
                for (std::size_t k = 0; k < lanes; ++k)
                    dbj[k] += rr[k] * xj;
            }
        }
    }
    if constexpr (std::is_same_v<R, ad::Var>) {
        detail::BatchWideTerm t(lanes);
        t.reserve(1 + numK);
        for (std::size_t k = 0; k < lanes; ++k) {
            t.edge(alphas[k], dAlpha[k]);
            for (std::size_t j = 0; j < numK; ++j)
                t.edge(betas[k * numK + j], dBeta[j * lanes + k]);
        }
        t.emit(value, out);
    } else {
        for (std::size_t k = 0; k < lanes; ++k)
            out[k] = value[k];
    }
}

/**
 * Batched Poisson log-link GLM with varying intercepts and a data
 * offset — K lanes of poisson_log_glm_lpmf against one pass over the
 * design matrix.
 * @param alphas  lane-major intercepts, lane k at [k*numAlpha, ...)
 * @param betas   lane-major coefficients, lane k at [k*numK, ...)
 */
template <typename TAlpha, typename TBeta>
void
poisson_log_glm_lpmf_batch(std::span<const long> ys,
                           std::span<const double> x,
                           std::span<const int> group,
                           std::span<const double> offset,
                           std::span<const TAlpha> alphas,
                           std::size_t numAlpha,
                           std::span<const TBeta> betas, std::size_t numK,
                           std::span<promote_t<TAlpha, TBeta>> out)
{
    using R = promote_t<TAlpha, TBeta>;
    const std::size_t lanes = out.size();
    const std::size_t n = ys.size();
    BAYES_ASSERT(alphas.size() == lanes * numAlpha && numAlpha > 0);
    BAYES_ASSERT(betas.size() == lanes * numK);
    BAYES_ASSERT(x.size() == n * numK);
    BAYES_ASSERT(group.empty() || group.size() >= n);
    BAYES_ASSERT(offset.empty() || offset.size() >= n);
    std::vector<double> alphaV(numAlpha * lanes); // SoA: [intercept][lane]
    for (std::size_t k = 0; k < lanes; ++k)
        for (std::size_t a = 0; a < numAlpha; ++a)
            alphaV[a * lanes + k] = valueOf(alphas[k * numAlpha + a]);
    std::vector<double> betaV(numK * lanes); // SoA: [coef][lane]
    for (std::size_t k = 0; k < lanes; ++k)
        for (std::size_t j = 0; j < numK; ++j)
            betaV[j * lanes + k] = valueOf(betas[k * numK + j]);
    std::vector<double> value(lanes, 0.0), eta(lanes), r;
    std::vector<double> dAlpha, dBeta;
    if constexpr (std::is_same_v<R, ad::Var>) {
        r.resize(lanes);
        dAlpha.assign(numAlpha * lanes, 0.0);
        dBeta.assign(numK * lanes, 0.0);
    }
    for (std::size_t i = 0; i < n; ++i) {
        const std::size_t g =
            group.empty() ? 0 : static_cast<std::size_t>(group[i]);
        const double* BAYES_RESTRICT row = x.data() + i * numK;
        double* BAYES_RESTRICT e = eta.data();
        const double* BAYES_RESTRICT ag = alphaV.data() + g * lanes;
        for (std::size_t k = 0; k < lanes; ++k)
            e[k] = ag[k];
        for (std::size_t j = 0; j < numK; ++j) {
            const double xj = row[j];
            const double* BAYES_RESTRICT bj = betaV.data() + j * lanes;
            for (std::size_t k = 0; k < lanes; ++k)
                e[k] += bj[k] * xj;
        }
        if (!offset.empty()) {
            const double o = offset[i];
            for (std::size_t k = 0; k < lanes; ++k)
                e[k] += o;
        }
        const double ky = static_cast<double>(ys[i]);
        const double lg = lgammaSafe(ky + 1.0);
        for (std::size_t k = 0; k < lanes; ++k)
            value[k] += ky * e[k] - std::exp(e[k]) - lg;
        if constexpr (std::is_same_v<R, ad::Var>) {
            double* BAYES_RESTRICT rr = r.data();
            for (std::size_t k = 0; k < lanes; ++k)
                rr[k] = ky - std::exp(e[k]);
            double* BAYES_RESTRICT dag = dAlpha.data() + g * lanes;
            for (std::size_t k = 0; k < lanes; ++k)
                dag[k] += rr[k];
            for (std::size_t j = 0; j < numK; ++j) {
                const double xj = row[j];
                double* BAYES_RESTRICT dbj = dBeta.data() + j * lanes;
                for (std::size_t k = 0; k < lanes; ++k)
                    dbj[k] += rr[k] * xj;
            }
        }
    }
    if constexpr (std::is_same_v<R, ad::Var>) {
        detail::BatchWideTerm t(lanes);
        t.reserve(numAlpha + numK);
        for (std::size_t k = 0; k < lanes; ++k) {
            for (std::size_t a = 0; a < numAlpha; ++a)
                t.edge(alphas[k * numAlpha + a], dAlpha[a * lanes + k]);
            for (std::size_t j = 0; j < numK; ++j)
                t.edge(betas[k * numK + j], dBeta[j * lanes + k]);
        }
        t.emit(value, out);
    } else {
        for (std::size_t k = 0; k < lanes; ++k)
            out[k] = value[k];
    }
}

/**
 * Batched normal identity-link GLM: K lanes of normal_id_glm_lpdf
 * against one pass over the design matrix.
 * @param betas  lane-major coefficients, lane k at [k*numK, ...)
 */
template <typename TAlpha, typename TBeta, typename TSigma>
void
normal_id_glm_lpdf_batch(std::span<const double> ys,
                         std::span<const double> x,
                         std::span<const TAlpha> alphas,
                         std::span<const TBeta> betas, std::size_t numK,
                         std::span<const TSigma> sigmas,
                         std::span<promote_t<TAlpha, TBeta, TSigma>> out)
{
    using R = promote_t<TAlpha, TBeta, TSigma>;
    const std::size_t lanes = out.size();
    const std::size_t n = ys.size();
    BAYES_ASSERT(alphas.size() == lanes && sigmas.size() == lanes);
    BAYES_ASSERT(betas.size() == lanes * numK);
    BAYES_ASSERT(x.size() == n * numK);
    const std::vector<double> alphaV = detail::values(alphas);
    std::vector<double> inv(lanes), logSigma(lanes);
    for (std::size_t k = 0; k < lanes; ++k) {
        inv[k] = 1.0 / valueOf(sigmas[k]);
        logSigma[k] = std::log(valueOf(sigmas[k]));
    }
    std::vector<double> betaV(numK * lanes); // SoA: [coef][lane]
    for (std::size_t k = 0; k < lanes; ++k)
        for (std::size_t j = 0; j < numK; ++j)
            betaV[j * lanes + k] = valueOf(betas[k * numK + j]);
    std::vector<double> value(lanes, 0.0), mu(lanes);
    std::vector<double> dAlpha, dBeta, dSigma;
    if constexpr (std::is_same_v<R, ad::Var>) {
        dAlpha.assign(lanes, 0.0);
        dBeta.assign(numK * lanes, 0.0);
        dSigma.assign(lanes, 0.0);
    }
    for (std::size_t i = 0; i < n; ++i) {
        const double* BAYES_RESTRICT row = x.data() + i * numK;
        double* BAYES_RESTRICT m = mu.data();
        for (std::size_t k = 0; k < lanes; ++k)
            m[k] = alphaV[k];
        for (std::size_t j = 0; j < numK; ++j) {
            const double xj = row[j];
            const double* BAYES_RESTRICT bj = betaV.data() + j * lanes;
            for (std::size_t k = 0; k < lanes; ++k)
                m[k] += bj[k] * xj;
        }
        const double y = ys[i];
        // Reuse mu as the standardized residual z from here on.
        for (std::size_t k = 0; k < lanes; ++k)
            m[k] = (y - m[k]) * inv[k];
        for (std::size_t k = 0; k < lanes; ++k)
            value[k] += -0.5 * m[k] * m[k] - logSigma[k] - kLogSqrtTwoPi;
        if constexpr (std::is_same_v<R, ad::Var>) {
            double* BAYES_RESTRICT da = dAlpha.data();
            double* BAYES_RESTRICT ds = dSigma.data();
            for (std::size_t k = 0; k < lanes; ++k)
                da[k] += m[k] * inv[k];
            for (std::size_t j = 0; j < numK; ++j) {
                const double xj = row[j];
                double* BAYES_RESTRICT dbj = dBeta.data() + j * lanes;
                for (std::size_t k = 0; k < lanes; ++k)
                    dbj[k] += m[k] * inv[k] * xj;
            }
            for (std::size_t k = 0; k < lanes; ++k)
                ds[k] += (m[k] * m[k] - 1.0) * inv[k];
        }
    }
    if constexpr (std::is_same_v<R, ad::Var>) {
        detail::BatchWideTerm t(lanes);
        t.reserve(numK + 2);
        for (std::size_t k = 0; k < lanes; ++k) {
            t.edge(alphas[k], dAlpha[k]);
            for (std::size_t j = 0; j < numK; ++j)
                t.edge(betas[k * numK + j], dBeta[j * lanes + k]);
            t.edge(sigmas[k], dSigma[k]);
        }
        t.emit(value, out);
    } else {
        for (std::size_t k = 0; k < lanes; ++k)
            out[k] = value[k];
    }
}

/**
 * Batched rescaled Bernoulli-logit GLM: K lanes of
 * bernoulli_logit_scaled_glm_lpmf against one pass over the design
 * matrix.
 * @param ws  lane-major weights, lane k at [k*numK, ...)
 */
template <typename TW, typename TScale, typename TShift>
void
bernoulli_logit_scaled_glm_lpmf_batch(
    std::span<const int> ys, std::span<const double> x,
    std::span<const TW> ws, std::size_t numK,
    std::span<const TScale> scales, std::span<const TShift> shifts,
    std::span<promote_t<TW, TScale, TShift>> out)
{
    using R = promote_t<TW, TScale, TShift>;
    const std::size_t lanes = out.size();
    const std::size_t n = ys.size();
    BAYES_ASSERT(scales.size() == lanes && shifts.size() == lanes);
    BAYES_ASSERT(ws.size() == lanes * numK);
    BAYES_ASSERT(x.size() == n * numK);
    const std::vector<double> scaleV = detail::values(scales);
    const std::vector<double> shiftV = detail::values(shifts);
    std::vector<double> wV(numK * lanes); // SoA: [weight][lane]
    for (std::size_t k = 0; k < lanes; ++k)
        for (std::size_t j = 0; j < numK; ++j)
            wV[j * lanes + k] = valueOf(ws[k * numK + j]);
    std::vector<double> value(lanes, 0.0), score(lanes), r;
    std::vector<double> dW, dScale, dShift;
    if constexpr (std::is_same_v<R, ad::Var>) {
        r.resize(lanes);
        dW.assign(numK * lanes, 0.0);
        dScale.assign(lanes, 0.0);
        dShift.assign(lanes, 0.0);
    }
    for (std::size_t i = 0; i < n; ++i) {
        const double* BAYES_RESTRICT row = x.data() + i * numK;
        double* BAYES_RESTRICT sc = score.data();
        for (std::size_t k = 0; k < lanes; ++k)
            sc[k] = 0.0;
        for (std::size_t j = 0; j < numK; ++j) {
            const double xj = row[j];
            const double* BAYES_RESTRICT wj = wV.data() + j * lanes;
            for (std::size_t k = 0; k < lanes; ++k)
                sc[k] += wj[k] * xj;
        }
        const int y = ys[i];
        for (std::size_t k = 0; k < lanes; ++k) {
            const detail::Logistic lg =
                detail::logistic(scaleV[k] * (sc[k] - shiftV[k]));
            value[k] += y ? -lg.softplusNeg : -lg.softplus;
            if constexpr (std::is_same_v<R, ad::Var>)
                r[k] = static_cast<double>(y) - lg.p;
        }
        if constexpr (std::is_same_v<R, ad::Var>) {
            const double* BAYES_RESTRICT rr = r.data();
            for (std::size_t j = 0; j < numK; ++j) {
                const double xj = row[j];
                double* BAYES_RESTRICT dwj = dW.data() + j * lanes;
                for (std::size_t k = 0; k < lanes; ++k)
                    dwj[k] += rr[k] * scaleV[k] * xj;
            }
            double* BAYES_RESTRICT dsc = dScale.data();
            double* BAYES_RESTRICT dsh = dShift.data();
            for (std::size_t k = 0; k < lanes; ++k) {
                dsc[k] += rr[k] * (sc[k] - shiftV[k]);
                dsh[k] -= rr[k] * scaleV[k];
            }
        }
    }
    if constexpr (std::is_same_v<R, ad::Var>) {
        detail::BatchWideTerm t(lanes);
        t.reserve(numK + 2);
        for (std::size_t k = 0; k < lanes; ++k) {
            for (std::size_t j = 0; j < numK; ++j)
                t.edge(ws[k * numK + j], dW[j * lanes + k]);
            t.edge(scales[k], dScale[k]);
            t.edge(shifts[k], dShift[k]);
        }
        t.emit(value, out);
    } else {
        for (std::size_t k = 0; k < lanes; ++k)
            out[k] = value[k];
    }
}

} // namespace bayes::math
