/**
 * @file
 * Micro-bench — gradient-evaluation cost per workload: wall time of one
 * logProbGrad call plus the tape it builds (tape_nodes, tape_bytes).
 * This is the sampler's inner loop; the architecture model's
 * instruction counts are anchored to these node counts. There is no
 * node-rate counter: a wide node carries a whole fused likelihood, so
 * nodes per second says nothing about how fast a fused model runs.
 */
#include <benchmark/benchmark.h>

#include "ppl/evaluator.hpp"
#include "samplers/runner.hpp"
#include "workloads/suite.hpp"

using namespace bayes;

namespace {

void
BM_LogProbGrad(benchmark::State& state, const std::string& name,
               bool scalarLikelihood = false)
{
    const auto wl = workloads::makeWorkload(name);
    ppl::Evaluator eval(*wl);
    eval.setScalarLikelihood(scalarLikelihood);
    Rng rng(7);
    const auto q = samplers::findInitialPoint(eval, rng);
    std::vector<double> grad;
    for (auto _ : state) {
        benchmark::DoNotOptimize(eval.logProbGrad(q, grad));
    }
    state.counters["tape_nodes"] =
        static_cast<double>(eval.lastTapeNodes());
    state.counters["tape_bytes"] = static_cast<double>(eval.tape().bytes());
}

} // namespace

BENCHMARK_CAPTURE(BM_LogProbGrad, twelvecities, std::string("12cities"));
BENCHMARK_CAPTURE(BM_LogProbGrad, ad, std::string("ad"));
BENCHMARK_CAPTURE(BM_LogProbGrad, ode, std::string("ode"));
BENCHMARK_CAPTURE(BM_LogProbGrad, memory, std::string("memory"));
BENCHMARK_CAPTURE(BM_LogProbGrad, votes, std::string("votes"));
BENCHMARK_CAPTURE(BM_LogProbGrad, tickets, std::string("tickets"));
BENCHMARK_CAPTURE(BM_LogProbGrad, disease, std::string("disease"));
BENCHMARK_CAPTURE(BM_LogProbGrad, racial, std::string("racial"));
BENCHMARK_CAPTURE(BM_LogProbGrad, butterfly, std::string("butterfly"));
BENCHMARK_CAPTURE(BM_LogProbGrad, survival, std::string("survival"));

// Scalar reference path on the fused workloads: time and the
// tape_nodes / tape_bytes counters against the fused rows above are
// the per-eval saving and working-set reduction of fusion (compare
// e.g. `ad` to `ad_scalar`). `ode` has a single implementation.
BENCHMARK_CAPTURE(BM_LogProbGrad, twelvecities_scalar,
                  std::string("12cities"), true);
BENCHMARK_CAPTURE(BM_LogProbGrad, ad_scalar, std::string("ad"), true);
BENCHMARK_CAPTURE(BM_LogProbGrad, votes_scalar, std::string("votes"), true);
BENCHMARK_CAPTURE(BM_LogProbGrad, tickets_scalar, std::string("tickets"),
                  true);
BENCHMARK_CAPTURE(BM_LogProbGrad, disease_scalar, std::string("disease"),
                  true);
BENCHMARK_CAPTURE(BM_LogProbGrad, survival_scalar, std::string("survival"),
                  true);
BENCHMARK_CAPTURE(BM_LogProbGrad, memory_scalar, std::string("memory"),
                  true);
BENCHMARK_CAPTURE(BM_LogProbGrad, racial_scalar, std::string("racial"),
                  true);
BENCHMARK_CAPTURE(BM_LogProbGrad, butterfly_scalar,
                  std::string("butterfly"), true);
