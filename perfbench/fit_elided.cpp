/**
 * @file
 * fit_elided: closed loop, one job at a time. Every pass fits all ten
 * suite models at their Table-I settings (4 chains, the developer's
 * iteration budget) through elide::runWithElision on the shared pool,
 * each with its own seed derived from the run seed and the pass index.
 * serve and amortize are bypassed.
 */
#include "perfbench.hpp"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <vector>

#include "diagnostics/summary.hpp"
#include "elide/elision.hpp"
#include "ppl/evaluator.hpp"
#include "samplers/runner.hpp"
#include "support/thread_pool.hpp"
#include "workloads/workload.hpp"

namespace perfbench {
namespace {

using Suite = std::vector<std::unique_ptr<bayes::workloads::Workload>>;

/**
 * Passes per run. The amount of measured work is fixed, not set by
 * --seconds. Elided time-to-converged is heavy-tailed across seeds (a
 * slow chain can run a model to its whole budget), so the report takes
 * each model's best pass.
 */
constexpr int kPasses = 2;

/** Fixed seed of the discarded warm-up runs: set-up work is the same on
 * every run seed. */
constexpr std::uint64_t kWarmupSeed = 0x5e7a9;

bayes::samplers::Config
tableIConfig(const bayes::workloads::Workload& model, std::uint64_t seed)
{
    bayes::samplers::Config config;
    config.chains = model.info().defaultChains;
    config.iterations = model.info().defaultIterations;
    config.execution = bayes::samplers::ExecutionPolicy::pool(kPoolWidth);
    config.seed = seed;
    return config;
}

/**
 * One set-up: generate the suite's data, size every evaluator's tape,
 * start the pool, and run a short discarded sampling pass per model so
 * the first timed fit pays no first-touch cost.
 */
Suite
setUp(Record& record)
{
    Suite suite;
    const double w0 = wallSeconds();
    const double c0 = cpuSeconds();
    {
        Span span(record, "workloads.make", "setup");
        suite = bayes::workloads::makeSuite();
        span.setCount(static_cast<double>(suite.size()));
    }
    bayes::support::sharedPool(kPoolWidth);
    for (std::size_t m = 0; m < suite.size(); ++m) {
        bayes::ppl::Evaluator eval(*suite[m]);
        std::vector<double> q(eval.dim(), 0.0);
        std::vector<double> grad;
        eval.logProbGrad(q, grad);
        auto config = tableIConfig(*suite[m], subSeed(kWarmupSeed, m));
        config.iterations = 20;
        config.warmup = 10;
        bayes::samplers::run(*suite[m], config);
    }
    record.sample("setup_cpu_s", cpuSeconds() - c0);
    record.sample("setup_wall_s", wallSeconds() - w0);
    return suite;
}

/** Constrained-scale posterior means and their MCSE (sd / sqrt(ESS)). */
std::string
posteriorJson(const bayes::diagnostics::PosteriorSummary& summary)
{
    std::vector<double> mean, mcse;
    for (const auto& c : summary.coords) {
        mean.push_back(c.mean);
        mcse.push_back(c.ess > 0.0 ? c.sd / std::sqrt(c.ess) : NAN);
    }
    return "\"mean\":" + jsonArray(mean) + ",\"mcse\":" + jsonArray(mcse);
}

/**
 * One pass over the suite; returns which models converged. Samples go
 * under @p prefix; with an empty prefix each fit's posterior summary is
 * appended to @p fits (JSON) for the reference check.
 */
std::vector<bool>
runPass(Record& record, const Suite& suite, std::uint64_t seed, int pass,
        const std::string& prefix, std::string& fits)
{
    double passWall = 0.0;
    std::vector<bool> converged;
    for (std::size_t m = 0; m < suite.size(); ++m) {
        const auto& model = *suite[m];
        const std::string& name = model.name();
        const std::string job = prefix + "fit:" + name + ":" + std::to_string(pass);
        Span fit(record, "fit", job);
        const auto config = tableIConfig(model, subSeed(seed, 16 * pass + m));

        bayes::elide::ElisionResult result;
        const double w0 = wallSeconds();
        const double c0 = cpuSeconds();
        {
            Span span(record, "elide.runWithElision", job, fit.id());
            result = bayes::elide::runWithElision(model, config);
            span.setCount(static_cast<double>(result.run.totalGradEvals()));
        }
        const double wall = wallSeconds() - w0;
        const double cpu = cpuSeconds() - c0;
        passWall += wall;
        converged.push_back(result.converged);

        if (record.tracing()) {
            // The detector from outside: every check of the run replayed,
            // then the check at the stop window, five times.
            {
                Span span(record, "elide.detectorRhat.replay", job, fit.id());
                for (const auto& check : result.rhatTrace)
                    bayes::elide::detectorRhat(result.run.chains, check.draw, 0.5);
                span.setCount(static_cast<double>(result.rhatTrace.size()));
            }
            Span span(record, "elide.detectorRhat.stop", job, fit.id());
            for (int r = 0; r < 5; ++r)
                bayes::elide::detectorRhat(result.run.chains, result.stoppedAtDraw, 0.5);
            span.setCount(5);
        }
        bayes::diagnostics::PosteriorSummary summary;
        {
            Span span(record, "diagnostics.summarize", job, fit.id());
            summary = bayes::diagnostics::summarize(result.run, model.layout());
        }

        double tapeNodes = 0.0;
        for (const auto& chain : result.run.chains)
            tapeNodes += static_cast<double>(chain.tapeNodesPerEval)
                * static_cast<double>(chain.totalGradEvals);
        record.sample(prefix + "fit_wall_s." + name, wall);
        record.sample(prefix + "fit_cpu_s." + name, cpu);
        record.sample(prefix + "fit_converged." + name, result.converged ? 1.0 : 0.0);
        record.sample(prefix + "grad_evals." + name,
                      static_cast<double>(result.run.totalGradEvals()));
        record.sample(prefix + "tape_nodes." + name, tapeNodes);
        record.sample(prefix + "stop_draws." + name, result.stoppedAtDraw);
        record.sample(prefix + "executed_iterations." + name, result.executedIterations);
        record.sample(prefix + "budget_iterations." + name, result.budgetIterations);
        std::fprintf(stderr, "perfbench: pass %d %-9s %s stop=%4d wall=%.3fs cpu=%.3fs\n",
                     pass, name.c_str(),
                     result.converged ? "converged    " : "NOT converged",
                     result.stoppedAtDraw, wall, cpu);

        if (prefix.empty()) {
            fits += std::string(fits.empty() ? "" : ",") + "{\"model\":" + jsonString(name)
                + ",\"pass\":" + std::to_string(pass) + ",\"converged\":"
                + (result.converged ? "true" : "false") + "," + posteriorJson(summary) + "}";
        }
    }
    record.sample(prefix + "pass_wall_s", passWall);
    return converged;
}

} // namespace

void
runFitElided(const RunOptions& options, Record& record)
{
    Suite suite;
    for (int rep = 0; rep < kSetups; ++rep)
        suite = setUp(record);
    record.info("fit.models", static_cast<double>(suite.size()));

    std::string fits;
    if (!options.trace) {
        std::vector<bool> everConverged(suite.size(), false);
        for (int pass = 0; pass < kPasses; ++pass) {
            const auto converged = runPass(record, suite, options.seed, pass, "", fits);
            for (std::size_t m = 0; m < suite.size(); ++m)
                everConverged[m] = everConverged[m] || converged[m];
        }
        // One slow seed may keep a model from converging in one pass; a
        // model that converges in none of them fails the run.
        for (std::size_t m = 0; m < suite.size(); ++m)
            record.check("fit_elided.converged." + suite[m]->name(), everConverged[m],
                         suite[m]->name() + " converged in none of "
                             + std::to_string(kPasses) + " passes");
    } else {
        // The same pass twice, without and with the program's own obs
        // tracer: identical seeds give identical work, so the host-time
        // ratio is the tracing overhead.
        runPass(record, suite, options.seed, 0, "", fits);
        startObsTrace();
        std::string unused;
        runPass(record, suite, options.seed, 0, "obs.", unused);
        stopObsTrace(options.obsTracePath);
        measureLayers(record);
    }
    record.raw("fits", "[" + fits + "]");
}

int
makeReference(const std::string& path, int iterations)
{
    const Suite suite = bayes::workloads::makeSuite();
    std::ofstream out(path);
    if (!out) {
        std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
        return 1;
    }
    out << "{\"iterations\":" << iterations << ",\"chains\":4,\"models\":{";
    for (std::size_t m = 0; m < suite.size(); ++m) {
        const auto& model = *suite[m];
        auto config = tableIConfig(model, 0x5eedULL + m);
        config.iterations = iterations;
        config.warmup = iterations / 4;
        const double t0 = wallSeconds();
        const auto run = bayes::samplers::run(model, config);
        const auto summary = bayes::diagnostics::summarize(run, model.layout());
        std::fprintf(stderr, "perfbench: reference %-9s %zu coords, max R-hat %.4f, "
                             "min ESS %.0f, %.1fs\n",
                     model.name().c_str(), summary.coords.size(),
                     summary.maxRhat(), summary.minEss(), wallSeconds() - t0);
        out << (m > 0 ? "," : "") << "\n" << jsonString(model.name()) << ":{"
            << posteriorJson(summary) << "}";
    }
    out << "\n}}\n";
    return 0;
}

} // namespace perfbench
