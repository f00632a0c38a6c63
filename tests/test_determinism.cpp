/**
 * @file
 * The determinism sweep (ctest label: determinism): drives the shared
 * harness across workloads × algorithms × seeds × execution policies
 * and asserts every cell's draws are byte-identical to the sequential
 * unbatched reference. Pooled HMC/MH rounds evaluate every chain in one
 * shared EvalBatch, so this is the gate that batching never changes a
 * bit; it also pins that the round loop's two round lengths (one
 * iteration under a monitor, the whole sampling phase without one)
 * yield the same draws.
 */
#include <gtest/gtest.h>

#include "determinism_harness.hpp"
#include "samplers/runner.hpp"
#include "workloads/suite.hpp"

namespace bayes {
namespace {

samplers::Config
sweepConfig(samplers::Algorithm algo, std::uint64_t seed)
{
    samplers::Config cfg;
    cfg.algorithm = algo;
    cfg.chains = 3;
    cfg.iterations = 36;
    cfg.warmup = 18;
    cfg.hmcLeapfrogSteps = 8;
    cfg.seed = seed;
    return cfg;
}

TEST(Determinism, DrawsAreByteIdenticalAcrossPolicySweep)
{
    for (const char* name : {"ad", "12cities"}) {
        const auto wl = workloads::makeWorkload(name, 0.1);
        for (const auto algo :
             {samplers::Algorithm::Mh, samplers::Algorithm::Hmc}) {
            for (const std::uint64_t seed : {777ull, 20190331ull}) {
                SCOPED_TRACE(::testing::Message()
                             << name << " algo "
                             << samplers::algorithmName(algo) << " seed "
                             << seed);
                harness::expectPolicyInvariantDraws(
                    *wl, sweepConfig(algo, seed));
            }
        }
    }
}

TEST(Determinism, StopIterationIsPolicyInvariant)
{
    // A monitor that stops mid-run must fire at the same round, with
    // the same delivered draws, whether the rounds evaluate per chain
    // or through one shared batch.
    const auto wl = workloads::makeWorkload("ad", 0.1);
    auto cfg = sweepConfig(samplers::Algorithm::Mh, 777);
    cfg.iterations = 60;
    cfg.warmup = 20;
    const samplers::IterationMonitor stopAt13 =
        [](const samplers::MonitorContext& ctx) {
            return ctx.round >= 13 ? samplers::MonitorAction::Stop
                                   : samplers::MonitorAction::Continue;
        };
    harness::expectPolicyInvariantDraws(*wl, cfg, stopAt13);

    cfg.execution = samplers::ExecutionPolicy::pool(2);
    const auto stopped = samplers::run(*wl, cfg, stopAt13);
    for (const auto& chain : stopped.chains)
        EXPECT_EQ(chain.draws.size(), 13u);
}

TEST(Determinism, NutsAndSliceStayPolicyInvariant)
{
    // NUTS and slice trajectories are data-dependent per chain, so
    // their pooled rounds evaluate per chain rather than batched.
    const auto wl = workloads::makeWorkload("ad", 0.1);
    for (const auto algo :
         {samplers::Algorithm::Nuts, samplers::Algorithm::Slice}) {
        SCOPED_TRACE(samplers::algorithmName(algo));
        harness::expectPolicyInvariantDraws(*wl, sweepConfig(algo, 777));
    }
}

TEST(Determinism, UnmonitoredRunMatchesNeverStoppingMonitor)
{
    // Without a monitor a round spans the whole sampling phase; with
    // one it is a single iteration. Round length must not change a bit.
    const auto wl = workloads::makeWorkload("ad", 0.1);
    const samplers::IterationMonitor never =
        [](const samplers::MonitorContext&) {
            return samplers::MonitorAction::Continue;
        };
    for (const auto algo :
         {samplers::Algorithm::Nuts, samplers::Algorithm::Mh}) {
        for (const auto policy : {samplers::ExecutionPolicy::sequential(),
                                  samplers::ExecutionPolicy::pool(2)}) {
            SCOPED_TRACE(::testing::Message()
                         << samplers::algorithmName(algo) << " "
                         << samplers::executionModeName(policy.mode));
            auto cfg = sweepConfig(algo, 777);
            cfg.execution = policy;
            const auto unmonitored = samplers::run(*wl, cfg);
            const auto monitored = samplers::run(*wl, cfg, never);
            EXPECT_TRUE(harness::identicalRuns(unmonitored, monitored));
            for (const auto& chain : unmonitored.chains)
                EXPECT_EQ(chain.draws.size(),
                          static_cast<std::size_t>(cfg.postWarmup()));
        }
    }
}

} // namespace
} // namespace bayes
