/**
 * @file
 * Performance smoke test gating the fused-kernel win: on the `ad`
 * attribution workload and on `memory`, `racial` and `butterfly` the
 * fused tape must stay at or below 25% of the scalar reference tape's
 * node count, while producing the same log density and gradient. Runs
 * as a plain ctest under the `perf-smoke` label so CI catches
 * regressions that quietly re-inflate the tape (e.g. a kernel falling
 * back to the scalar loop).
 */
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "ppl/evaluator.hpp"
#include "support/rng.hpp"
#include "workloads/suite.hpp"

namespace bayes {
namespace {

/**
 * The fused tape of workload @p name is at most a quarter of the scalar
 * reference tape's node count, for the same log density and gradient.
 */
void
expectFusedTapeAtMostAQuarter(const char* name)
{
    const auto wl = workloads::makeWorkload(name, 1.0);
    ppl::Evaluator fused(*wl);
    ppl::Evaluator scalar(*wl);
    scalar.setScalarLikelihood(true);

    Rng rng(2019);
    std::vector<double> q(fused.dim());
    for (auto& qi : q)
        qi = rng.normal(0.0, 0.3);

    std::vector<double> gF, gS;
    const double lpF = fused.logProbGrad(q, gF);
    const double lpS = scalar.logProbGrad(q, gS);

    // Same posterior...
    EXPECT_NEAR(lpF, lpS, 1e-9 * std::fabs(lpS)) << name;
    ASSERT_EQ(gF.size(), gS.size());
    for (std::size_t i = 0; i < gF.size(); ++i)
        EXPECT_NEAR(gF[i], gS[i],
                    1e-8 * std::max(1.0, std::fabs(gS[i])))
            << name << " coord " << i;

    // ...from a tape at most a quarter of the size.
    EXPECT_LE(4 * fused.lastTapeNodes(), scalar.lastTapeNodes())
        << name << ": fused " << fused.lastTapeNodes()
        << " nodes vs scalar " << scalar.lastTapeNodes();
}

TEST(PerfSmoke, FusedTapeIsAQuarterOfScalarOnAdAttribution)
{
    expectFusedTapeAtMostAQuarter("ad");
}

TEST(PerfSmoke, FusedTapeIsAQuarterOfScalarOnHierarchicalModels)
{
    // One model per new kernel family: grouped GLMs (memory), per-cell
    // binomials (racial) and the occupancy mixture (butterfly).
    for (const char* name : {"memory", "racial", "butterfly"})
        expectFusedTapeAtMostAQuarter(name);
}

TEST(PerfSmoke, BatchedEvalStreamsDataOncePerEightLanes)
{
    // The batching win the EvalBatch surface exists for: a K=8
    // gradient batch makes one pass over the observed data where eight
    // singles make eight. Checked on both gate workloads.
    for (const char* name : {"ad", "tickets"}) {
        const auto wl = workloads::makeWorkload(name, 1.0);
        ppl::Evaluator batched(*wl);
        ppl::Evaluator single(*wl);

        Rng rng(2019);
        constexpr std::size_t kLanes = 8;
        ppl::EvalBatch batch(batched.dim(), kLanes);
        std::vector<double> q(batched.dim());
        std::vector<std::vector<double>> pts;
        for (std::size_t k = 0; k < kLanes; ++k) {
            for (auto& qi : q)
                qi = rng.normal(0.0, 0.3);
            batch.setPoint(k, q);
            pts.push_back(q);
        }

        std::vector<double> lp(kLanes);
        ppl::EvalBatch grads;
        batched.logProbGradBatch(batch, lp, grads);
        std::vector<double> g;
        for (const auto& p : pts)
            single.logProbGrad(p, g);

        EXPECT_EQ(batched.numGradEvals(), single.numGradEvals()) << name;
        EXPECT_EQ(batched.numDataPasses(), 1u) << name;
        EXPECT_EQ(single.numDataPasses(), kLanes) << name;
    }
}

} // namespace
} // namespace bayes
