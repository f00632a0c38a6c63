#include "serve/load_generator.hpp"

#include <utility>

#include "support/error.hpp"

namespace bayes::serve {

LoadGenerator::LoadGenerator(LoadConfig config, std::vector<TenantSpec> mix)
    : config_(std::move(config)), mix_(std::move(mix))
{
    BAYES_CHECK(!mix_.empty(), "serve: load generator needs a tenant mix");
    BAYES_CHECK(config_.arrivalRatePerSecond > 0.0,
                "serve: arrival rate must be positive, got "
                    << config_.arrivalRatePerSecond);
    for (const TenantSpec& spec : mix_)
        BAYES_CHECK(spec.weight > 0.0,
                    "serve: tenant '" << spec.tenant
                                      << "' needs a positive weight, got "
                                      << spec.weight);
}

std::vector<Request>
LoadGenerator::schedule() const
{
    std::vector<double> weights;
    weights.reserve(mix_.size());
    for (const TenantSpec& spec : mix_)
        weights.push_back(spec.weight);

    Rng rng(config_.seed);
    std::vector<Request> arrivals;
    arrivals.reserve(config_.requests);
    double now = 0.0;
    for (std::size_t i = 0; i < config_.requests; ++i) {
        now += rng.exponential(config_.arrivalRatePerSecond);
        const TenantSpec& spec = mix_[rng.categorical(weights)];
        Request request;
        request.tenant = spec.tenant;
        request.workload = spec.workload;
        request.dataScale = spec.dataScale;
        request.config = spec.config;
        // Distinct seed per request so repeat requests are genuinely
        // different jobs (the warm cache, not draw reuse, is the
        // amortization story).
        request.config.seed = spec.config.seed + i;
        request.slo = spec.slo;
        request.deadlineSeconds = spec.deadlineSeconds;
        request.arrivalSeconds = now;
        request.query = spec.query;
        arrivals.push_back(std::move(request));
    }
    return arrivals;
}

std::vector<TenantSpec>
defaultTenantMix()
{
    // Small sampler configs on six of the fused-kernel workloads: the
    // bench pushes thousands of these, so each one is a sub-second job.
    samplers::Config quickMh;
    quickMh.algorithm = samplers::Algorithm::Mh;
    quickMh.chains = 2;
    quickMh.iterations = 200;

    samplers::Config quickHmc;
    quickHmc.algorithm = samplers::Algorithm::Hmc;
    quickHmc.chains = 2;
    quickHmc.iterations = 120;
    quickHmc.hmcLeapfrogSteps = 8;

    std::vector<TenantSpec> mix;
    mix.reserve(6);

    TenantSpec& ads = mix.emplace_back();
    ads.tenant = "ads";
    ads.workload = "ad";
    ads.weight = 3.0;
    ads.slo = SloClass::Interactive;
    ads.config = quickMh;
    ads.query = QueryKind::Mean;

    TenantSpec& ops = mix.emplace_back();
    ops.tenant = "ops";
    ops.workload = "tickets";
    ops.weight = 2.0;
    ops.slo = SloClass::Interactive;
    ops.config = quickMh;
    ops.query = QueryKind::Mean;

    TenantSpec& geo = mix.emplace_back();
    geo.tenant = "geo";
    geo.workload = "12cities";
    geo.weight = 2.0;
    geo.slo = SloClass::Standard;
    geo.config = quickHmc;

    TenantSpec& epi = mix.emplace_back();
    epi.tenant = "epi";
    epi.workload = "disease";
    epi.dataScale = 0.5;
    epi.weight = 2.0;
    epi.slo = SloClass::Standard;
    epi.config = quickMh;

    TenantSpec& polls = mix.emplace_back();
    polls.tenant = "polls";
    polls.workload = "votes";
    polls.weight = 2.0;
    polls.slo = SloClass::Standard;
    polls.config = quickMh;

    TenantSpec& actuary = mix.emplace_back();
    actuary.tenant = "actuary";
    actuary.workload = "survival";
    actuary.dataScale = 0.5;
    actuary.weight = 1.0;
    actuary.slo = SloClass::Batch;
    actuary.config = quickHmc;

    return mix;
}

} // namespace bayes::serve
