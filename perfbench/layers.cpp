/**
 * @file
 * Per-layer microbenchmarks at fixed shapes. Each times calls into one
 * module's public functions from here, in blocks of at least
 * kBlockSeconds, under a span whose count is the number of calls;
 * report.py takes the median per-call time of the kBlocks blocks.
 */
#include "perfbench.hpp"

#include <fstream>
#include <span>
#include <vector>

#include "diagnostics/importance.hpp"
#include "diagnostics/summary.hpp"
#include "obs/trace.hpp"
#include "ppl/evaluator.hpp"
#include "samplers/amortize.hpp"
#include "samplers/runner.hpp"
#include "serve/load_generator.hpp"
#include "serve/server.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"
#include "workloads/workload.hpp"

namespace perfbench {
namespace {

constexpr double kBlockSeconds = 0.02;
constexpr int kBlocks = 3;

/**
 * Time @p fn in kBlocks blocks, each recorded as span @p name of job
 * @p job with its call count; the report takes the median per-call time.
 */
template <typename Fn>
void
perCall(Record& record, const std::string& name, const std::string& job, Fn&& fn)
{
    fn(); // first touch outside the timed blocks
    for (int b = 0; b < kBlocks; ++b) {
        Span span(record, name, job);
        long calls = 0;
        const double t0 = wallSeconds();
        do {
            fn();
            ++calls;
        } while (wallSeconds() - t0 < kBlockSeconds);
        span.setCount(static_cast<double>(calls));
    }
}

} // namespace

void
measureLayers(Record& record)
{
    // ppl: single-lane gradient per suite model at the unconstrained origin.
    const auto suite = bayes::workloads::makeSuite();
    for (const auto& model : suite) {
        bayes::ppl::Evaluator eval(*model);
        const std::vector<double> q(eval.dim(), 0.0);
        std::vector<double> grad;
        perCall(record, "ppl.logProbGrad", model->name(), [&] { eval.logProbGrad(q, grad); });
    }

    // ppl: the same gradient on "ad" as a 2-lane batch (serve's chains).
    {
        const auto ad = bayes::workloads::makeWorkload("ad");
        bayes::ppl::Evaluator eval(*ad);
        bayes::ppl::EvalBatch batch(eval.dim(), 2);
        for (std::size_t d = 0; d < eval.dim(); ++d)
            batch.at(d, 1) = 0.01;
        bayes::ppl::EvalBatch grad;
        std::vector<double> lp(2);
        perCall(record, "ppl.logProbGradBatch", "ad.k2", [&] {
            eval.logProbGradBatch(batch, std::span<double>(lp), grad);
        });
    }

    const auto mix = bayes::serve::defaultTenantMix();
    const bayes::serve::TenantSpec& ads = mix.front(); // interactive MH on "ad"

    // samplers: one serve-sized MH job on the pool, per iteration.
    {
        const auto model = bayes::workloads::makeWorkload(ads.workload, ads.dataScale);
        auto config = ads.config;
        config.execution = bayes::samplers::ExecutionPolicy::pool(kPoolWidth);
        perCall(record, "samplers.run", "mh",
                                 [&] { bayes::samplers::run(*model, config); });
    }

    // support: submit and wait of an empty task.
    {
        auto& pool = bayes::support::sharedPool(kPoolWidth);
        perCall(record, "support.ThreadPool.submit", "empty",
                                 [&] { pool.submit([] {}).get(); });
    }

    // serve: admission cost estimate on a warm key.
    {
        bayes::serve::ServerConfig config;
        config.workers = kPoolWidth;
        bayes::serve::Server server(config);
        bayes::serve::Request request;
        request.workload = ads.workload;
        request.dataScale = ads.dataScale;
        request.config = ads.config;
        request.slo = ads.slo;
        perCall(record, "serve.estimatedServiceSeconds", "ad",
                                 [&] { server.estimatedServiceSeconds(request); });
    }

    // diagnostics: summary of a 2-chain serve result (12cities, HMC).
    {
        const bayes::serve::TenantSpec* geo = nullptr;
        for (const auto& spec : mix)
            if (spec.workload == "12cities")
                geo = &spec;
        const auto model = bayes::workloads::makeWorkload(geo->workload, geo->dataScale);
        auto config = geo->config;
        config.execution = bayes::samplers::ExecutionPolicy::pool(kPoolWidth);
        const auto run = bayes::samplers::run(*model, config);
        perCall(record, "diagnostics.summarize", "12cities.hmc2", [&] {
            bayes::diagnostics::summarize(run, model->layout());
        });
    }

    // diagnostics: Pareto-k̂ over the amortized tier's 128 importance ratios.
    {
        bayes::Rng rng(7);
        std::vector<double> ratios(128);
        for (double& r : ratios)
            r = rng.normal();
        perCall(record, "diagnostics.paretoKhat", "n128",
                                 [&] { bayes::diagnostics::paretoKhat(ratios); });
    }

    // amortize: one cache install (ADVI fit + k̂) and the per-request gate.
    {
        const auto model = bayes::workloads::makeWorkload("ad", 0.25);
        bayes::ppl::Evaluator eval(*model);
        bayes::samplers::amortize::AmortizedCache cache([] {
            bayes::samplers::amortize::AmortizeConfig config;
            config.advi.maxIterations = 400;
            config.advi.outputDraws = 256;
            config.importanceDraws = 128;
            return config;
        }());
        const bayes::samplers::amortize::CacheKey key{
            "ad", bayes::samplers::amortize::AmortizedCache::statsDigest(*model), 0.25};
        bayes::samplers::amortize::Entry* entry = nullptr;
        for (int b = 0; b < kBlocks; ++b) {
            Span span(record, "amortize.fit", "ad.0.25");
            entry = &cache.fit(key, *model, eval);
            span.setCount(1.0);
        }

        bayes::samplers::Config config;
        config.chains = 2;
        config.iterations = 200;
        config.execution = bayes::samplers::ExecutionPolicy::pool(kPoolWidth);
        cache.installReference(*entry, bayes::samplers::run(*model, config));
        perCall(record, "amortize.gate", "ad.0.25", [&] { cache.gate(*entry); });
    }
}

void
startObsTrace()
{
    bayes::obs::Tracer::global().start();
}

void
stopObsTrace(const std::string& path)
{
    auto& tracer = bayes::obs::Tracer::global();
    tracer.stop();
    if (path.empty())
        return;
    std::ofstream out(path);
    tracer.writeJson(out);
}

} // namespace perfbench
