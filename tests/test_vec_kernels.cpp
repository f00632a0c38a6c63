/**
 * @file
 * Fused vectorized kernel tests: every kernel in math/vec_kernels.hpp
 * is pinned against the scalar-loop tape path (values to 1e-12
 * relative, gradients to 1e-10 relative), cross-checked against central
 * finite differences, and the wide-node reverse sweep is exercised
 * across edge counts K ∈ {0, 1, 2, 7, 1000}. The ported workloads are
 * then compared end-to-end: fused vs scalar `Evaluator` at randomized
 * unconstrained points.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <span>
#include <vector>

#include "ad/tape.hpp"
#include "ad/var.hpp"
#include "math/distributions.hpp"
#include "math/vec_kernels.hpp"
#include "ppl/evaluator.hpp"
#include "support/rng.hpp"
#include "workloads/suite.hpp"

namespace bayes {
namespace {

constexpr double kValueRelTol = 1e-12;
constexpr double kGradRelTol = 1e-10;

double
relErr(double a, double b)
{
    return std::fabs(a - b) / std::max({1.0, std::fabs(a), std::fabs(b)});
}

std::vector<ad::Var>
makeLeaves(ad::Tape& tape, const std::vector<double>& vals)
{
    std::vector<ad::Var> out;
    out.reserve(vals.size());
    for (double v : vals)
        out.push_back(ad::leaf(tape, v));
    return out;
}

/**
 * Compare a fused and a scalar tape program over the same leaf values:
 * equal log densities and equal adjoints for every leaf.
 */
void
expectSamePosterior(
    const std::vector<double>& leafVals,
    const std::function<ad::Var(std::span<const ad::Var>)>& fused,
    const std::function<ad::Var(std::span<const ad::Var>)>& scalar)
{
    ad::Tape tf;
    const auto lf = makeLeaves(tf, leafVals);
    const ad::Var yf = fused(lf);
    std::vector<double> gf;
    tf.gradient(yf.id(), gf);

    ad::Tape ts;
    const auto ls = makeLeaves(ts, leafVals);
    const ad::Var ys = scalar(ls);
    std::vector<double> gs;
    ts.gradient(ys.id(), gs);

    EXPECT_LT(relErr(yf.value(), ys.value()), kValueRelTol)
        << "fused " << yf.value() << " vs scalar " << ys.value();
    for (std::size_t i = 0; i < leafVals.size(); ++i)
        EXPECT_LT(relErr(gf[lf[i].id()], gs[ls[i].id()]), kGradRelTol)
            << "leaf " << i << ": fused " << gf[lf[i].id()] << " vs scalar "
            << gs[ls[i].id()];
}

/** Central finite difference of a fused value over leaf i. */
void
expectMatchesFiniteDifference(
    const std::vector<double>& leafVals,
    const std::function<ad::Var(std::span<const ad::Var>)>& fused,
    double h = 1e-6)
{
    ad::Tape tape;
    const auto leaves = makeLeaves(tape, leafVals);
    const ad::Var y = fused(leaves);
    std::vector<double> grad;
    tape.gradient(y.id(), grad);
    for (std::size_t i = 0; i < leafVals.size(); ++i) {
        auto at = [&](double delta) {
            ad::Tape t2;
            std::vector<double> shifted = leafVals;
            shifted[i] += delta;
            const auto l2 = makeLeaves(t2, shifted);
            return fused(l2).value();
        };
        const double numeric = (at(h) - at(-h)) / (2.0 * h);
        EXPECT_NEAR(grad[leaves[i].id()], numeric,
                    1e-4 * std::max(1.0, std::fabs(numeric)))
            << "leaf " << i;
    }
}

// ---------------------------------------------------------------------
// Kernel-by-kernel: fused vs scalar loop
// ---------------------------------------------------------------------

std::vector<double>
randomData(Rng& rng, std::size_t n, double lo, double hi)
{
    std::vector<double> out(n);
    for (auto& v : out)
        v = rng.uniform(lo, hi);
    return out;
}

TEST(VecKernels, NormalOverDataMatchesScalarLoop)
{
    Rng rng(71);
    for (int rep = 0; rep < 5; ++rep) {
        const auto ys = randomData(rng, 40 + 30 * rep, -3.0, 5.0);
        const std::vector<double> leafVals{rng.uniform(-2.0, 2.0),
                                           rng.uniform(0.3, 2.5)};
        auto fused = [&](std::span<const ad::Var> p) {
            return math::normal_lpdf_vec(std::span<const double>(ys), p[0],
                                         p[1]);
        };
        auto scalar = [&](std::span<const ad::Var> p) {
            ad::Var lp(0.0);
            for (double y : ys)
                lp += math::normal_lpdf(y, p[0], p[1]);
            return lp;
        };
        expectSamePosterior(leafVals, fused, scalar);
        expectMatchesFiniteDifference(leafVals, fused);
    }
}

TEST(VecKernels, NormalOverParamsMatchesScalarLoop)
{
    Rng rng(72);
    const std::size_t n = 25;
    std::vector<double> leafVals = randomData(rng, n, -2.0, 2.0);
    leafVals.push_back(0.4);  // mu
    leafVals.push_back(1.3);  // sigma
    auto fused = [&](std::span<const ad::Var> p) {
        return math::normal_lpdf_vec(p.subspan(0, n), p[n], p[n + 1]);
    };
    auto scalar = [&](std::span<const ad::Var> p) {
        ad::Var lp(0.0);
        for (std::size_t i = 0; i < n; ++i)
            lp += math::normal_lpdf(p[i], p[n], p[n + 1]);
        return lp;
    };
    expectSamePosterior(leafVals, fused, scalar);
    expectMatchesFiniteDifference(leafVals, fused);
}

TEST(VecKernels, NormalPerElementMuMatchesScalarLoop)
{
    Rng rng(73);
    const std::size_t n = 30;
    const auto ys = randomData(rng, n, -4.0, 4.0);
    std::vector<double> leafVals = randomData(rng, n, -2.0, 2.0);
    leafVals.push_back(0.8);  // sigma
    auto fused = [&](std::span<const ad::Var> p) {
        return math::normal_lpdf_vec(std::span<const double>(ys),
                                     p.subspan(0, n), p[n]);
    };
    auto scalar = [&](std::span<const ad::Var> p) {
        ad::Var lp(0.0);
        for (std::size_t i = 0; i < n; ++i)
            lp += math::normal_lpdf(ys[i], p[i], p[n]);
        return lp;
    };
    expectSamePosterior(leafVals, fused, scalar);
}

TEST(VecKernels, StdNormalMatchesScalarLoop)
{
    Rng rng(74);
    const auto leafVals = randomData(rng, 33, -2.5, 2.5);
    auto fused = [&](std::span<const ad::Var> p) {
        return math::std_normal_lpdf_vec(p);
    };
    auto scalar = [&](std::span<const ad::Var> p) {
        ad::Var lp(0.0);
        for (const ad::Var& z : p)
            lp += math::std_normal_lpdf(z);
        return lp;
    };
    expectSamePosterior(leafVals, fused, scalar);
}

TEST(VecKernels, ExponentialOverParamsMatchesScalarLoop)
{
    Rng rng(75);
    const std::size_t n = 12;
    std::vector<double> leafVals = randomData(rng, n, 0.05, 4.0);
    leafVals.push_back(0.25);  // rate
    auto fused = [&](std::span<const ad::Var> p) {
        return math::exponential_lpdf_vec(p.subspan(0, n), p[n]);
    };
    auto scalar = [&](std::span<const ad::Var> p) {
        ad::Var lp(0.0);
        for (std::size_t i = 0; i < n; ++i)
            lp += math::exponential_lpdf(p[i], p[n]);
        return lp;
    };
    expectSamePosterior(leafVals, fused, scalar);
    expectMatchesFiniteDifference(leafVals, fused);
}

TEST(VecKernels, GammaOverDataMatchesScalarLoop)
{
    Rng rng(76);
    const auto ys = randomData(rng, 50, 0.1, 6.0);
    const std::vector<double> leafVals{2.2, 1.7};  // shape, rate
    auto fused = [&](std::span<const ad::Var> p) {
        return math::gamma_lpdf_vec(std::span<const double>(ys), p[0], p[1]);
    };
    auto scalar = [&](std::span<const ad::Var> p) {
        ad::Var lp(0.0);
        for (double y : ys)
            lp += math::gamma_lpdf(y, p[0], p[1]);
        return lp;
    };
    expectSamePosterior(leafVals, fused, scalar);
    expectMatchesFiniteDifference(leafVals, fused);
}

TEST(VecKernels, NegBinomial2MatchesScalarLoop)
{
    Rng rng(77);
    std::vector<long> ys(60);
    for (auto& y : ys)
        y = rng.poisson(4.0);
    const std::vector<double> leafVals{3.6, 2.1};  // mu, phi
    auto fused = [&](std::span<const ad::Var> p) {
        return math::neg_binomial_2_lpmf_vec(std::span<const long>(ys),
                                             p[0], p[1]);
    };
    auto scalar = [&](std::span<const ad::Var> p) {
        ad::Var lp(0.0);
        for (long y : ys)
            lp += math::neg_binomial_2_lpmf(y, p[0], p[1]);
        return lp;
    };
    expectSamePosterior(leafVals, fused, scalar);
    expectMatchesFiniteDifference(leafVals, fused);
}

TEST(VecKernels, BernoulliLogitGlmMatchesScalarLoop)
{
    Rng rng(78);
    const std::size_t n = 80, numK = 4;
    const auto x = randomData(rng, n * numK, -1.5, 1.5);
    std::vector<int> ys(n);
    for (auto& y : ys)
        y = rng.bernoulli(0.4);
    std::vector<double> leafVals = randomData(rng, numK, -1.0, 1.0);
    leafVals.push_back(0.3);  // alpha
    auto fused = [&](std::span<const ad::Var> p) {
        return math::bernoulli_logit_glm_lpmf(
            std::span<const int>(ys), std::span<const double>(x), p[numK],
            p.subspan(0, numK));
    };
    auto scalar = [&](std::span<const ad::Var> p) {
        ad::Var lp(0.0);
        for (std::size_t i = 0; i < n; ++i) {
            ad::Var eta = p[numK];
            for (std::size_t k = 0; k < numK; ++k)
                eta += p[k] * x[i * numK + k];
            lp += math::bernoulli_logit_lpmf(ys[i], eta);
        }
        return lp;
    };
    expectSamePosterior(leafVals, fused, scalar);
    expectMatchesFiniteDifference(leafVals, fused);
}

TEST(VecKernels, PoissonLogGlmWithGroupsAndOffsetMatchesScalarLoop)
{
    Rng rng(79);
    const std::size_t n = 90, numK = 3, numG = 5;
    const auto x = randomData(rng, n * numK, -1.0, 1.0);
    const auto offset = randomData(rng, n, -0.5, 0.5);
    std::vector<int> group(n);
    std::vector<long> ys(n);
    for (std::size_t i = 0; i < n; ++i) {
        group[i] = static_cast<int>(rng.uniformInt(numG));
        ys[i] = rng.poisson(3.0);
    }
    std::vector<double> leafVals = randomData(rng, numG, 0.2, 1.4);
    for (std::size_t k = 0; k < numK; ++k)
        leafVals.push_back(rng.uniform(-0.5, 0.5));
    auto fused = [&](std::span<const ad::Var> p) {
        return math::poisson_log_glm_lpmf(
            std::span<const long>(ys), std::span<const double>(x),
            std::span<const int>(group), std::span<const double>(offset),
            p.subspan(0, numG), p.subspan(numG, numK));
    };
    auto scalar = [&](std::span<const ad::Var> p) {
        ad::Var lp(0.0);
        for (std::size_t i = 0; i < n; ++i) {
            ad::Var eta = p[static_cast<std::size_t>(group[i])];
            for (std::size_t k = 0; k < numK; ++k)
                eta += p[numG + k] * x[i * numK + k];
            eta += offset[i];
            lp += math::poisson_log_lpmf(ys[i], eta);
        }
        return lp;
    };
    expectSamePosterior(leafVals, fused, scalar);
    expectMatchesFiniteDifference(leafVals, fused);
}

TEST(VecKernels, NormalIdGlmMatchesScalarLoop)
{
    Rng rng(80);
    const std::size_t n = 70, numK = 3;
    const auto x = randomData(rng, n * numK, -2.0, 2.0);
    const auto ys = randomData(rng, n, -3.0, 3.0);
    std::vector<double> leafVals = randomData(rng, numK, -1.0, 1.0);
    leafVals.push_back(0.6);  // alpha
    leafVals.push_back(0.9);  // sigma
    auto fused = [&](std::span<const ad::Var> p) {
        return math::normal_id_glm_lpdf(
            std::span<const double>(ys), std::span<const double>(x),
            p[numK], p.subspan(0, numK), p[numK + 1]);
    };
    auto scalar = [&](std::span<const ad::Var> p) {
        ad::Var lp(0.0);
        for (std::size_t i = 0; i < n; ++i) {
            ad::Var mu = p[numK];
            for (std::size_t k = 0; k < numK; ++k)
                mu += p[k] * x[i * numK + k];
            lp += math::normal_lpdf(ys[i], mu, p[numK + 1]);
        }
        return lp;
    };
    expectSamePosterior(leafVals, fused, scalar);
    expectMatchesFiniteDifference(leafVals, fused);
}

TEST(VecKernels, BernoulliLogitScaledGlmMatchesScalarLoop)
{
    Rng rng(81);
    const std::size_t n = 60, numK = 5;
    const auto x = randomData(rng, n * numK, 0.0, 1.0);
    std::vector<int> ys(n);
    for (auto& y : ys)
        y = rng.bernoulli(0.5);
    std::vector<double> leafVals = randomData(rng, numK, 0.1, 2.0);
    leafVals.push_back(1.8);  // scale
    leafVals.push_back(2.2);  // shift
    auto fused = [&](std::span<const ad::Var> p) {
        return math::bernoulli_logit_scaled_glm_lpmf(
            std::span<const int>(ys), std::span<const double>(x),
            p.subspan(0, numK), p[numK], p[numK + 1]);
    };
    auto scalar = [&](std::span<const ad::Var> p) {
        ad::Var lp(0.0);
        for (std::size_t i = 0; i < n; ++i) {
            ad::Var score(0.0);
            for (std::size_t k = 0; k < numK; ++k)
                score += p[k] * x[i * numK + k];
            lp += math::bernoulli_logit_lpmf(ys[i],
                                             p[numK]
                                                 * (score - p[numK + 1]));
        }
        return lp;
    };
    expectSamePosterior(leafVals, fused, scalar);
    expectMatchesFiniteDifference(leafVals, fused);
}

TEST(VecKernels, BernoulliLogitGlmWithGroupsMatchesScalarLoop)
{
    // Group numG - 1 has no rows: its intercept gets a zero edge.
    Rng rng(83);
    const std::size_t n = 75, numK = 2, numG = 6;
    const auto x = randomData(rng, n * numK, -1.5, 1.5);
    std::vector<int> group(n), ys(n);
    for (std::size_t i = 0; i < n; ++i) {
        group[i] = static_cast<int>(rng.uniformInt(numG - 1));
        ys[i] = rng.bernoulli(0.55);
    }
    std::vector<double> leafVals = randomData(rng, numG, -1.0, 1.0);
    for (std::size_t k = 0; k < numK; ++k)
        leafVals.push_back(rng.uniform(-0.8, 0.8));
    auto fused = [&](std::span<const ad::Var> p) {
        return math::bernoulli_logit_glm_lpmf(
            std::span<const int>(ys), std::span<const double>(x),
            std::span<const int>(group), p.subspan(0, numG),
            p.subspan(numG, numK));
    };
    auto scalar = [&](std::span<const ad::Var> p) {
        ad::Var lp(0.0);
        for (std::size_t i = 0; i < n; ++i) {
            ad::Var eta = p[static_cast<std::size_t>(group[i])];
            for (std::size_t k = 0; k < numK; ++k)
                eta += p[numG + k] * x[i * numK + k];
            lp += math::bernoulli_logit_lpmf(ys[i], eta);
        }
        return lp;
    };
    expectSamePosterior(leafVals, fused, scalar);
    expectMatchesFiniteDifference(leafVals, fused);

    ad::Tape tape;
    const auto leaves = makeLeaves(tape, leafVals);
    std::vector<double> grad;
    tape.gradient(fused(leaves).id(), grad);
    EXPECT_EQ(grad[leaves[numG - 1].id()], 0.0);
}

TEST(VecKernels, NormalIdGlmWithGroupsMatchesScalarLoop)
{
    // Group 0 has no rows: its intercept gets a zero edge.
    Rng rng(84);
    const std::size_t n = 64, numK = 2, numG = 5;
    const auto x = randomData(rng, n * numK, -2.0, 2.0);
    const auto ys = randomData(rng, n, -3.0, 3.0);
    std::vector<int> group(n);
    for (auto& g : group)
        g = 1 + static_cast<int>(rng.uniformInt(numG - 1));
    std::vector<double> leafVals = randomData(rng, numG, -1.0, 1.0);
    for (std::size_t k = 0; k < numK; ++k)
        leafVals.push_back(rng.uniform(-0.8, 0.8));
    leafVals.push_back(1.1);  // sigma
    const std::size_t sig = numG + numK;
    auto fused = [&](std::span<const ad::Var> p) {
        return math::normal_id_glm_lpdf(
            std::span<const double>(ys), std::span<const double>(x),
            std::span<const int>(group), p.subspan(0, numG),
            p.subspan(numG, numK), p[sig]);
    };
    auto scalar = [&](std::span<const ad::Var> p) {
        ad::Var lp(0.0);
        for (std::size_t i = 0; i < n; ++i) {
            ad::Var mu = p[static_cast<std::size_t>(group[i])];
            for (std::size_t k = 0; k < numK; ++k)
                mu += p[numG + k] * x[i * numK + k];
            lp += math::normal_lpdf(ys[i], mu, p[sig]);
        }
        return lp;
    };
    expectSamePosterior(leafVals, fused, scalar);
    expectMatchesFiniteDifference(leafVals, fused);

    ad::Tape tape;
    const auto leaves = makeLeaves(tape, leafVals);
    std::vector<double> grad;
    tape.gradient(fused(leaves).id(), grad);
    EXPECT_EQ(grad[leaves[0].id()], 0.0);
}

/** Aggregated binomial cells; every fifth cell has no trials. */
struct BinomialCells
{
    std::vector<long> ys, ns;
};

BinomialCells
makeBinomialCells(Rng& rng, std::size_t cells)
{
    BinomialCells c;
    for (std::size_t i = 0; i < cells; ++i) {
        const long n =
            i % 5 == 2 ? 0 : 1 + static_cast<long>(rng.uniformInt(400));
        c.ns.push_back(n);
        c.ys.push_back(rng.binomial(n, rng.uniform(0.05, 0.6)));
    }
    return c;
}

TEST(VecKernels, BinomialLogitVecMatchesScalarLoop)
{
    Rng rng(85);
    const std::size_t cells = 40;
    const BinomialCells c = makeBinomialCells(rng, cells);
    const double lchooseSum = math::binomial_lchoose_sum(
        std::span<const long>(c.ys), std::span<const long>(c.ns));
    const auto leafVals = randomData(rng, cells, -3.0, 1.5);
    auto fused = [&](std::span<const ad::Var> p) {
        return math::binomial_logit_lpmf_vec(std::span<const long>(c.ys),
                                             std::span<const long>(c.ns),
                                             p, lchooseSum);
    };
    // The scalar loop skips cells with no trials, as the racial model's
    // hit layer skips cells with no searches.
    auto scalar = [&](std::span<const ad::Var> p) {
        ad::Var lp(0.0);
        for (std::size_t i = 0; i < cells; ++i)
            if (c.ns[i] > 0)
                lp += math::binomial_logit_lpmf(c.ys[i], c.ns[i], p[i]);
        return lp;
    };
    expectSamePosterior(leafVals, fused, scalar);
    expectMatchesFiniteDifference(leafVals, fused);

    // Empty cells record no edge and get a zero adjoint.
    ad::Tape tape;
    const auto leaves = makeLeaves(tape, leafVals);
    const ad::Var y = fused(leaves);
    EXPECT_EQ(tape.edgeCount(), cells - cells / 5);
    std::vector<double> grad;
    tape.gradient(y.id(), grad);
    for (std::size_t i = 2; i < cells; i += 5)
        EXPECT_EQ(grad[leaves[i].id()], 0.0) << "cell " << i;
}

/**
 * A species × site detection table with T visits per site, and its
 * per-species count histograms. Species 0 is never detected, species 1
 * is detected at every site.
 */
struct DetectionTable
{
    std::size_t species, sites;
    long trials;
    std::vector<long> counts; ///< [species * sites + site]
    std::vector<long> hist;   ///< [species * (trials + 1) + c]
};

DetectionTable
makeDetectionTable(Rng& rng, std::size_t species, std::size_t sites,
                   long trials)
{
    DetectionTable d{species, sites, trials, {}, {}};
    const auto bins = static_cast<std::size_t>(trials) + 1;
    d.hist.assign(species * bins, 0);
    for (std::size_t s = 0; s < species; ++s) {
        for (std::size_t j = 0; j < sites; ++j) {
            long c = 0;
            if (s == 1)
                c = 1 + static_cast<long>(rng.uniformInt(
                    static_cast<std::uint64_t>(trials)));
            else if (s > 1 && rng.bernoulli(0.6))
                c = rng.binomial(trials, 0.4);
            d.counts.push_back(c);
            ++d.hist[s * bins + static_cast<std::size_t>(c)];
        }
    }
    return d;
}

/** The butterfly model's per-site scalar occupancy loop. */
template <typename T>
T
occupancyScalarLoop(const DetectionTable& d, std::span<const T> occ,
                    std::span<const T> det)
{
    T lp = 0.0;
    for (std::size_t s = 0; s < d.species; ++s) {
        const T logPsi = -math::log1pExp(-occ[s]);
        const T logOneMinusPsi = -math::log1pExp(occ[s]);
        for (std::size_t j = 0; j < d.sites; ++j) {
            const long x = d.counts[s * d.sites + j];
            const T detLp = math::binomial_logit_lpmf(x, d.trials, det[s]);
            if (x > 0)
                lp += logPsi + detLp;
            else
                lp += math::logSumExp(logPsi + detLp, logOneMinusPsi);
        }
    }
    return lp;
}

TEST(VecKernels, OccupancyBinomialLogitMatchesScalarLoop)
{
    Rng rng(86);
    const std::size_t species = 9;
    const DetectionTable d = makeDetectionTable(rng, species, 8, 3);
    ASSERT_EQ(d.hist[0], 8);               // species 0: never detected
    ASSERT_EQ(d.hist[1 * 4 + 0], 0);       // species 1: every site
    std::vector<double> leafVals = randomData(rng, 2 * species, -2.5, 2.5);
    leafVals[0] = 4.0;  // near-certain occupancy, never detected
    auto fused = [&](std::span<const ad::Var> p) {
        return math::occupancy_binomial_logit_lpmf_vec(
            std::span<const long>(d.hist), d.trials, p.subspan(0, species),
            p.subspan(species, species));
    };
    auto scalar = [&](std::span<const ad::Var> p) {
        return occupancyScalarLoop<ad::Var>(d, p.subspan(0, species),
                                            p.subspan(species, species));
    };
    expectSamePosterior(leafVals, fused, scalar);
    expectMatchesFiniteDifference(leafVals, fused);

    // Two edges per species, one wide node for the whole table.
    ad::Tape tape;
    const auto leaves = makeLeaves(tape, leafVals);
    fused(leaves);
    EXPECT_EQ(tape.edgeCount(), 2 * species);
    EXPECT_EQ(tape.wideCount(), 1u);
}

TEST(VecKernels, NewKernelsAllDoubleInstantiationBuildsNoTape)
{
    Rng rng(87);
    // Grouped GLMs; group 2 has no rows.
    const std::size_t n = 30, numK = 2;
    const auto x = randomData(rng, n * numK, -1.0, 1.0);
    const auto yd = randomData(rng, n, -2.0, 2.0);
    std::vector<int> group(n), yb(n);
    for (std::size_t i = 0; i < n; ++i) {
        group[i] = static_cast<int>(i % 2);
        yb[i] = rng.bernoulli(0.5);
    }
    const auto alphas = randomData(rng, 3, -1.0, 1.0);
    const auto betas = randomData(rng, numK, -1.0, 1.0);
    const double bernFused = math::bernoulli_logit_glm_lpmf(
        std::span<const int>(yb), std::span<const double>(x),
        std::span<const int>(group), std::span<const double>(alphas),
        std::span<const double>(betas));
    const double nidFused = math::normal_id_glm_lpdf(
        std::span<const double>(yd), std::span<const double>(x),
        std::span<const int>(group), std::span<const double>(alphas),
        std::span<const double>(betas), 0.7);
    double bernScalar = 0.0, nidScalar = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        double eta = alphas[static_cast<std::size_t>(group[i])];
        for (std::size_t k = 0; k < numK; ++k)
            eta += betas[k] * x[i * numK + k];
        bernScalar += math::bernoulli_logit_lpmf(yb[i], eta);
        nidScalar += math::normal_lpdf(yd[i], eta, 0.7);
    }
    EXPECT_LT(relErr(bernFused, bernScalar), kValueRelTol);
    EXPECT_LT(relErr(nidFused, nidScalar), kValueRelTol);

    const BinomialCells c = makeBinomialCells(rng, 15);
    const double lchooseSum = math::binomial_lchoose_sum(
        std::span<const long>(c.ys), std::span<const long>(c.ns));
    const auto etas = randomData(rng, 15, -2.0, 2.0);
    const DetectionTable d = makeDetectionTable(rng, 5, 6, 4);
    const auto occ = randomData(rng, 5, -1.5, 1.5);
    const auto det = randomData(rng, 5, -1.5, 1.5);

    const double binFused = math::binomial_logit_lpmf_vec(
        std::span<const long>(c.ys), std::span<const long>(c.ns),
        std::span<const double>(etas), lchooseSum);
    double binScalar = 0.0;
    for (std::size_t i = 0; i < etas.size(); ++i)
        if (c.ns[i] > 0)
            binScalar += math::binomial_logit_lpmf(c.ys[i], c.ns[i], etas[i]);
    EXPECT_LT(relErr(binFused, binScalar), kValueRelTol);

    const double occFused = math::occupancy_binomial_logit_lpmf_vec(
        std::span<const long>(d.hist), d.trials,
        std::span<const double>(occ), std::span<const double>(det));
    const double occScalar = occupancyScalarLoop<double>(
        d, std::span<const double>(occ), std::span<const double>(det));
    EXPECT_LT(relErr(occFused, occScalar), kValueRelTol);

    // Untracked Var arguments collapse to a constant: no tape is touched
    // and the value is the double instantiation's, bit for bit.
    const std::vector<ad::Var> alphaVars(alphas.begin(), alphas.end());
    const std::vector<ad::Var> betaVars(betas.begin(), betas.end());
    const ad::Var bernConst = math::bernoulli_logit_glm_lpmf(
        std::span<const int>(yb), std::span<const double>(x),
        std::span<const int>(group), std::span<const ad::Var>(alphaVars),
        std::span<const ad::Var>(betaVars));
    const ad::Var nidConst = math::normal_id_glm_lpdf(
        std::span<const double>(yd), std::span<const double>(x),
        std::span<const int>(group), std::span<const ad::Var>(alphaVars),
        std::span<const ad::Var>(betaVars), ad::Var(0.7));
    EXPECT_FALSE(bernConst.tracked());
    EXPECT_FALSE(nidConst.tracked());
    EXPECT_EQ(bernConst.value(), bernFused);
    EXPECT_EQ(nidConst.value(), nidFused);
    const std::vector<ad::Var> etaVars(etas.begin(), etas.end());
    const std::vector<ad::Var> occVars(occ.begin(), occ.end());
    const std::vector<ad::Var> detVars(det.begin(), det.end());
    const ad::Var binConst = math::binomial_logit_lpmf_vec(
        std::span<const long>(c.ys), std::span<const long>(c.ns),
        std::span<const ad::Var>(etaVars), lchooseSum);
    const ad::Var occConst = math::occupancy_binomial_logit_lpmf_vec(
        std::span<const long>(d.hist), d.trials,
        std::span<const ad::Var>(occVars), std::span<const ad::Var>(detVars));
    EXPECT_FALSE(binConst.tracked());
    EXPECT_FALSE(occConst.tracked());
    EXPECT_EQ(binConst.value(), binFused);
    EXPECT_EQ(occConst.value(), occFused);
}

TEST(VecKernels, DotVecMatchesScalarLoop)
{
    Rng rng(82);
    const std::size_t n = 20;
    const auto ws = randomData(rng, n, -3.0, 3.0);
    const auto leafVals = randomData(rng, n, -2.0, 2.0);
    auto fused = [&](std::span<const ad::Var> p) {
        return math::dot_vec(p, std::span<const double>(ws));
    };
    auto scalar = [&](std::span<const ad::Var> p) {
        ad::Var lp(0.0);
        for (std::size_t i = 0; i < n; ++i)
            lp += p[i] * ws[i];
        return lp;
    };
    expectSamePosterior(leafVals, fused, scalar);
}

TEST(VecKernels, AllDoubleInstantiationBuildsNoTape)
{
    const std::vector<double> ys{0.3, -1.2, 2.4};
    const double lpFused =
        math::normal_lpdf_vec(std::span<const double>(ys), 0.5, 1.2);
    double lpScalar = 0.0;
    for (double y : ys)
        lpScalar += math::normal_lpdf(y, 0.5, 1.2);
    EXPECT_LT(relErr(lpFused, lpScalar), kValueRelTol);
}

// ---------------------------------------------------------------------
// Wide-node sweep across edge counts
// ---------------------------------------------------------------------

class WideNodeSweep : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(WideNodeSweep, AdjointsScatterThroughTheEdgeArena)
{
    const std::size_t numEdges = GetParam();
    ad::Tape tape;
    std::vector<ad::NodeId> parents;
    std::vector<double> weights;
    std::vector<ad::Var> leaves;
    for (std::size_t k = 0; k < numEdges; ++k) {
        leaves.push_back(ad::leaf(tape, 0.1 * static_cast<double>(k)));
        parents.push_back(leaves.back().id());
        weights.push_back(1.0 + static_cast<double>(k));
    }
    const ad::NodeId wide =
        tape.pushWide(parents, weights, ad::OpClass::Special);
    // Feed the wide node through a downstream op so its adjoint is not
    // the seed itself.
    const ad::Var w(&tape, 0.0, wide);
    const ad::Var y = w * 2.0;
    std::vector<double> grad;
    tape.gradient(y.id(), grad);
    for (std::size_t k = 0; k < numEdges; ++k)
        EXPECT_DOUBLE_EQ(grad[leaves[k].id()], 2.0 * weights[k]) << k;
    EXPECT_EQ(tape.edgeCount(), numEdges);
    EXPECT_EQ(tape.wideCount(), 1u);
}

INSTANTIATE_TEST_SUITE_P(EdgeCounts, WideNodeSweep,
                         ::testing::Values(0u, 1u, 2u, 7u, 1000u));

TEST(WideNode, MixesWithFixedNodesInOneSweep)
{
    ad::Tape tape;
    const ad::Var a = ad::leaf(tape, 1.5);
    const ad::Var b = ad::leaf(tape, -0.5);
    const ad::Var fixedPath = a * b + ad::exp(a);
    const std::vector<ad::NodeId> parents{a.id(), b.id()};
    const std::vector<double> weights{3.0, -2.0};
    const ad::Var widePath(
        &tape, 3.0 * 1.5 + (-2.0) * (-0.5),
        tape.pushWide(parents, weights, ad::OpClass::Special));
    const ad::Var y = fixedPath + widePath;
    std::vector<double> grad;
    tape.gradient(y.id(), grad);
    EXPECT_DOUBLE_EQ(grad[a.id()], -0.5 + std::exp(1.5) + 3.0);
    EXPECT_DOUBLE_EQ(grad[b.id()], 1.5 - 2.0);
}

// ---------------------------------------------------------------------
// Workload-level: fused vs scalar evaluators at random points
// ---------------------------------------------------------------------

class FusedWorkload : public ::testing::TestWithParam<const char*>
{
};

TEST_P(FusedWorkload, MatchesScalarPathAtRandomPoints)
{
    const auto wl = workloads::makeWorkload(GetParam(), 0.5);
    ppl::Evaluator fused(*wl);
    ppl::Evaluator scalar(*wl);
    scalar.setScalarLikelihood(true);
    Rng rng(90);
    for (int rep = 0; rep < 3; ++rep) {
        std::vector<double> q(fused.dim());
        for (auto& qi : q)
            qi = rng.normal(0.0, 0.5);
        const double lpF = fused.logProb(q);
        const double lpS = scalar.logProb(q);
        EXPECT_LT(relErr(lpF, lpS), kValueRelTol) << lpF << " vs " << lpS;

        std::vector<double> gF, gS;
        const double lpgF = fused.logProbGrad(q, gF);
        const double lpgS = scalar.logProbGrad(q, gS);
        EXPECT_LT(relErr(lpgF, lpgS), kValueRelTol);
        ASSERT_EQ(gF.size(), gS.size());
        for (std::size_t i = 0; i < gF.size(); ++i)
            EXPECT_LT(relErr(gF[i], gS[i]), kGradRelTol)
                << GetParam() << " coord " << i << ": " << gF[i] << " vs "
                << gS[i];
        // The point of fusion: far fewer nodes on the same model.
        EXPECT_LT(fused.lastTapeNodes(), scalar.lastTapeNodes());
    }
}

INSTANTIATE_TEST_SUITE_P(PortedWorkloads, FusedWorkload,
                         ::testing::Values("ad", "12cities", "tickets",
                                           "disease", "votes", "survival",
                                           "memory", "racial", "butterfly"));

} // namespace
} // namespace bayes
