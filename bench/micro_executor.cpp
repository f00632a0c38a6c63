/**
 * @file
 * Executor micro-bench — wall-clock time of `runWithElision` under the
 * sequential and pooled execution policies on `12cities` and `votes`
 * (4 chains). The round loop must produce the identical stop draw under
 * both; the interesting number is the wall-time ratio, which
 * approaches the chain count on a machine with that many idle cores.
 */
#include "common.hpp"
#include "elide/elision.hpp"
#include "obs/obs.hpp"
#include "ppl/evaluator.hpp"
#include "samplers/runner.hpp"
#include "support/table.hpp"
#include "support/thread_pool.hpp"
#include "support/timer.hpp"

#include <cstdio>
#include <thread>

using namespace bayes;

namespace {

struct Measurement
{
    double seconds;
    elide::ElisionResult result;
};

Measurement
timedElision(const workloads::Workload& wl, samplers::Config cfg,
             samplers::ExecutionPolicy policy)
{
    cfg.execution = policy;
    Timer timer;
    Measurement m{0.0, elide::runWithElision(wl, cfg)};
    m.seconds = timer.seconds();
    return m;
}

} // namespace

int
main()
{
    std::printf("hardware concurrency: %u\n",
                std::thread::hardware_concurrency());

    Table table({"workload", "policy", "wall(s)", "speedup", "stop draw",
                 "converged"});
    for (const std::string name : {"12cities", "votes"}) {
        const auto wl = workloads::makeWorkload(name);
        auto cfg = bench::userConfig(
            *wl, samplers::ExecutionPolicy::sequential());
        cfg.chains = 4;
        std::fprintf(stderr, "[bench] %s: elided runs x2 policies...\n",
                     name.c_str());

        const auto seq = timedElision(
            *wl, cfg, samplers::ExecutionPolicy::sequential());
        const auto pool =
            timedElision(*wl, cfg, samplers::ExecutionPolicy::pool());

        auto emit = [&](const char* policy, const Measurement& m) {
            table.row()
                .cell(name)
                .cell(policy)
                .cell(m.seconds, 2)
                .cell(seq.seconds / m.seconds, 2)
                .cell(static_cast<long>(m.result.stoppedAtDraw))
                .cell(m.result.converged ? "yes" : "no");
        };
        emit("sequential", seq);
        emit("pool", pool);

        // The whole point of the round loop: identical decisions.
        if (pool.result.stoppedAtDraw != seq.result.stoppedAtDraw) {
            std::fprintf(stderr,
                         "ERROR: stop draw differs across policies\n");
            return 1;
        }
    }
    printSection("Executor micro-bench — runWithElision wall time by "
                 "execution policy (4 chains)",
                 table);

    // Observability overhead at runtime: the same pooled elision run
    // with the tracer idle (metrics only — the default) and with full
    // trace collection. The acceptance bar for the obs layer is < 2%
    // on the idle path; the compile-time half of the story
    // (BAYES_OBS=OFF, which deletes the metric writes entirely) is a
    // cross-build comparison — see docs/observability.md.
    {
        const auto wl = workloads::makeWorkload("12cities");
        auto cfg = bench::userConfig(*wl);
        cfg.chains = 4;
        std::fprintf(stderr,
                     "[bench] obs overhead: tracer idle vs active...\n");
        // Best-of-3 per mode: scheduler noise on a busy host easily
        // exceeds the effect being measured, and the minimum is the
        // cleanest estimator of the undisturbed run.
        auto bestOf3 = [&](bool traceActive) {
            double best = 1e300;
            for (int rep = 0; rep < 3; ++rep) {
                if (traceActive)
                    obs::Tracer::global().start();
                const auto m = timedElision(
                    *wl, cfg, samplers::ExecutionPolicy::pool());
                if (traceActive)
                    obs::Tracer::global().stop();
                best = std::min(best, m.seconds);
            }
            return best;
        };
        const double idle = bestOf3(false);
        const double active = bestOf3(true);

        Table obsTable({"obs mode", "best-of-3 wall(s)", "overhead(%)"});
        obsTable.row().cell("tracer idle (null sink)").cell(idle, 3).cell(
            0.0, 1);
        obsTable.row().cell("tracer active").cell(active, 3).cell(
            100.0 * (active / idle - 1.0), 1);
        printSection(
            "Observability overhead — pooled elided 12cities run "
            "(compiled-in metrics always on; BAYES_OBS=OFF is a "
            "cross-build comparison)",
            obsTable);
        std::fprintf(stderr, "[bench] trace events collected: %zu\n",
                     obs::Tracer::global().eventCount());
    }

    // Batched pooled evaluation: the pooled HMC run, whose rounds
    // gather every chain's gradient evaluations into one EvalBatch, vs
    // the sequential per-chain reference. Draws are byte-identical; the
    // win is one shared-data pass per round instead of K, shown
    // directly as data bytes streamed per gradient evaluation at the
    // Evaluator level.
    {
        const auto wl = workloads::makeWorkload("ad");
        Table batchTable({"chains K", "batched wall(s)",
                          "sequential wall(s)", "data bytes/eval",
                          "per-chain bytes/eval"});
        for (const int chains : {2, 4, 8}) {
            auto cfg = bench::userConfig(*wl);
            cfg.algorithm = samplers::Algorithm::Hmc;
            cfg.chains = chains;
            cfg.hmcLeapfrogSteps = 8;
            std::fprintf(stderr,
                         "[bench] batched eval: K=%d HMC pooled vs "
                         "sequential...\n",
                         chains);

            cfg.execution = samplers::ExecutionPolicy::pool();
            Timer tb;
            const auto batched = samplers::run(*wl, cfg);
            const double batchedSeconds = tb.seconds();
            cfg.execution = samplers::ExecutionPolicy::sequential();
            Timer ts;
            const auto sequential = samplers::run(*wl, cfg);
            const double sequentialSeconds = ts.seconds();
            if (batched.chains[0].draws != sequential.chains[0].draws) {
                std::fprintf(stderr,
                             "ERROR: batched draws differ from sequential\n");
                return 1;
            }

            // Data streamed per gradient evaluation, measured on the
            // evaluator itself: a K-lane batch makes one pass where K
            // singles make K.
            ppl::Evaluator eval(*wl);
            ppl::EvalBatch batch(eval.dim(),
                                 static_cast<std::size_t>(chains));
            std::vector<double> lp(static_cast<std::size_t>(chains));
            ppl::EvalBatch grads;
            eval.logProbGradBatch(batch, lp, grads);
            const double bytesPerEval =
                static_cast<double>(wl->modeledDataBytes())
                * static_cast<double>(eval.numDataPasses())
                / static_cast<double>(eval.numGradEvals());

            batchTable.row()
                .cell(static_cast<long>(chains))
                .cell(batchedSeconds, 2)
                .cell(sequentialSeconds, 2)
                .cell(bytesPerEval, 0)
                .cell(static_cast<double>(wl->modeledDataBytes()), 0);
        }
        printSection(
            "Batched pooled evaluation — wall time and shared-data bytes "
            "per gradient eval vs chain count (HMC on `ad`, pool vs "
            "sequential)",
            batchTable);
    }

    bench::writeRunReport("micro_executor");
    return 0;
}
