/**
 * @file
 * serve_open and serve_repeat: open-loop Poisson arrivals replayed
 * through serve::Server::runSchedule. Latencies are the server's
 * virtual-clock timeline (due time to completion, with measured service
 * times); host wall and CPU time of runSchedule are measured around the
 * call.
 *
 * serve_open replays serve::defaultTenantMix() with the amortized tier
 * off at a nominal rate near half the host's capacity, then searches the
 * capacity. serve_repeat draws requests from nine
 * (workload, dataScale) keys with Zipf-like popularity and the amortized
 * tier on; every replay runs on a fresh server, so each key's first
 * request is cold (a full run plus the ADVI install) and its repeats end
 * as cache answers or gate escalations.
 *
 * Traces are stratified: tenants are dealt from shuffled blocks that hold
 * each tenant exactly its weight's number of times, so every replay
 * carries the mix's exact proportions and only order and arrival times
 * vary with the seed. In serve_open one server serves the set-up and
 * every replay of a run; each replay starts at the server's current
 * virtual time.
 */
#include "perfbench.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "serve/load_generator.hpp"
#include "serve/server.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"
#include "workloads/workload.hpp"

namespace perfbench {
namespace {

using bayes::serve::Request;
using bayes::serve::RequestStatus;
using bayes::serve::Response;
using bayes::serve::SloClass;
using bayes::serve::TenantSpec;

/** serve_open: nominal rate, about half the capacity of a 4-vCPU Xeon VM. */
constexpr double kOpenRate = 20.0;
/** Requests per nominal-rate replay. */
constexpr std::size_t kOpenRequests = 250;
/** Capacity search: interactive tail limit (class deadline is 5 s). */
constexpr double kTailLimitSeconds = 1.0;
/** Capacity search: backlog left after the last arrival, in seconds. */
constexpr double kDrainLimitSeconds = 0.25;
constexpr std::size_t kProbeRequests = 100;
constexpr int kProbes = 3;

/**
 * serve_repeat: arrival rate and requests per replay. Cold runs, ADVI
 * installs and escalated NUTS runs keep the server busy about a third of
 * the time at this rate, so cache answers queue behind them now and then.
 */
constexpr double kRepeatRate = 10.0;
constexpr std::size_t kRepeatRequests = 250;

/**
 * Measured replays per run. The amount of measured work is fixed, not
 * set by --seconds, so every run of the same code measures the same
 * traffic.
 */
constexpr int kReplays = 2;

/** Discarded warm-up replay inside each set-up: size and fixed seed. */
constexpr std::size_t kWarmupRequests = 20;
constexpr std::uint64_t kWarmupSeed = 0x5e7a9;

/** A tenant and its exact count per stratification block. */
struct Tenant
{
    TenantSpec spec;
    int perBlock = 1;
};

std::vector<Tenant>
openMix()
{
    std::vector<Tenant> mix;
    for (const TenantSpec& spec : bayes::serve::defaultTenantMix())
        mix.push_back({spec, static_cast<int>(std::lround(spec.weight))});
    return mix;
}

/** serve_repeat keys in popularity order, counts per 33-request block. */
std::vector<Tenant>
repeatMix()
{
    struct Key
    {
        const char* tenant;
        const char* workload;
        double dataScale;
        SloClass slo;
        int perBlock;
    };
    // At these scales and tier settings the gate's verdict is stable:
    // "ad" and "votes" pass it on every repeat, "12cities" never does, so
    // its requests always escalate to NUTS. (Keys whose verdict flips as
    // references refresh, such as "survival" at 0.5, make run time
    // bimodal and are left out.)
    static const Key keys[] = {
        {"ads-a", "ad", 0.25, SloClass::Interactive, 10},
        {"polls", "votes", 0.25, SloClass::Standard, 7},
        {"ads-b", "ad", 0.5, SloClass::Interactive, 5},
        {"ads-c", "ad", 1.0, SloClass::Interactive, 3},
        {"geo-a", "12cities", 0.75, SloClass::Standard, 2},
        {"ads-d", "ad", 0.75, SloClass::Interactive, 2},
        {"ads-e", "ad", 0.375, SloClass::Interactive, 2},
        {"geo-b", "12cities", 0.5, SloClass::Standard, 1},
        {"geo-c", "12cities", 0.25, SloClass::Standard, 1},
    };
    std::vector<Tenant> mix;
    for (const Key& k : keys) {
        Tenant t;
        t.spec.tenant = k.tenant;
        t.spec.workload = k.workload;
        t.spec.dataScale = k.dataScale;
        t.spec.slo = k.slo;
        t.spec.config.algorithm = bayes::samplers::Algorithm::Nuts;
        t.spec.config.chains = 2;
        t.spec.config.iterations = 200;
        t.perBlock = k.perBlock;
        mix.push_back(t);
    }
    return mix;
}

Request
makeRequest(const TenantSpec& spec, double arrival, std::uint64_t seed)
{
    Request request;
    request.tenant = spec.tenant;
    request.workload = spec.workload;
    request.dataScale = spec.dataScale;
    request.config = spec.config;
    request.config.seed = seed;
    request.slo = spec.slo;
    request.deadlineSeconds = spec.deadlineSeconds;
    request.arrivalSeconds = arrival;
    request.query = spec.query;
    return request;
}

/**
 * Stratified open-loop trace: exponential gaps at @p rate starting at
 * @p start, tenants dealt from shuffled blocks of exact per-tenant counts.
 */
std::vector<Request>
makeTrace(const std::vector<Tenant>& mix, double rate, std::size_t requests,
          std::uint64_t seed, double start)
{
    bayes::Rng rng(seed);
    std::vector<std::size_t> block;
    for (std::size_t t = 0; t < mix.size(); ++t)
        block.insert(block.end(), static_cast<std::size_t>(mix[t].perBlock), t);
    std::vector<Request> trace;
    trace.reserve(requests);
    std::size_t next = block.size();
    double now = start;
    for (std::size_t i = 0; i < requests; ++i) {
        if (next == block.size()) {
            for (std::size_t j = block.size() - 1; j > 0; --j)
                std::swap(block[j], block[rng.uniformInt(j + 1)]);
            next = 0;
        }
        now += rng.exponential(rate);
        trace.push_back(makeRequest(mix[block[next++]].spec, now, subSeed(seed, i)));
    }
    return trace;
}

bayes::serve::ServerConfig
serverConfig(bool amortized)
{
    bayes::serve::ServerConfig config;
    config.workers = kPoolWidth;
    config.amortizedTier = amortized;
    // Cheap-tier settings of bench/serve_amortized (the gate split above
    // holds at these).
    config.amortize.advi.maxIterations = 400;
    config.amortize.advi.outputDraws = 256;
    config.amortize.importanceDraws = 128;
    return config;
}

/**
 * Highest of a fixed percentile ladder with >= 10 samples beyond it: the
 * C++ copy of report.py's tail(), used by the capacity search.
 */
double
tailOf(const std::vector<double>& xs)
{
    for (double p : {0.99, 0.95, 0.90, 0.75, 0.50})
        if (static_cast<double>(xs.size()) * (1.0 - p) >= 10.0)
            return bayes::quantile(xs, p);
    return NAN;
}

/** Outcome of one replay, for the capacity search. */
struct Replay
{
    std::size_t requests = 0;
    std::size_t ok = 0;
    std::size_t served = 0;    ///< requests that ran (ok or late)
    double billedSeconds = 0.0; ///< their summed service time
    double interactiveTail = NAN;
    double drainSeconds = 0.0;
};

/**
 * Replay @p trace on @p server and check its outputs. Samples go under
 * @p prefix; a null @p prefix records nothing but the checks.
 */
Replay
replay(Record& record, bayes::serve::Server& server, bool amortized,
       std::vector<Request> trace, const std::string& tag, const char* prefix)
{
    std::vector<double> due;
    due.reserve(trace.size());
    for (const Request& r : trace)
        due.push_back(r.arrivalSeconds);
    std::sort(due.begin(), due.end());

    const std::size_t firstId = server.responses().size();
    const std::uint64_t hits0 = server.warmHits();
    const std::uint64_t misses0 = server.warmMisses();
    const auto tier0 = server.amortStats();

    const int replaySpan = record.open("serve.runSchedule", tag, 0);
    const double w0 = wallSeconds();
    const double c0 = cpuSeconds();
    server.runSchedule(std::move(trace));
    const double wall = wallSeconds() - w0;
    const double cpu = cpuSeconds() - c0;
    record.close(replaySpan, static_cast<double>(due.size()));

    std::size_t ok = 0, shed = 0, miss = 0, failed = 0, queued = 0;
    std::size_t nonFinite = 0, wrongTier = 0;
    std::vector<double> arrivals;
    std::vector<double> latency[bayes::serve::kNumSloClasses];
    double billed = 0.0;
    std::size_t served = 0;
    const std::vector<Response>& responses = server.responses();
    for (std::size_t id = firstId; id < responses.size(); ++id) {
        const Response& r = responses[id];
        arrivals.push_back(r.arrivalSeconds);
        switch (r.status) {
          case RequestStatus::Ok:
            ++ok;
            break;
          case RequestStatus::Shed:
            ++shed;
            break;
          case RequestStatus::DeadlineMiss:
            ++miss;
            break;
          case RequestStatus::Failed:
            ++failed;
            break;
          case RequestStatus::Queued:
            ++queued;
            break;
        }
        if (r.status == RequestStatus::Ok || r.status == RequestStatus::DeadlineMiss) {
            const auto c = static_cast<std::size_t>(r.slo);
            latency[c].push_back(r.latencySeconds);
            billed += r.serviceSeconds;
            ++served;
        }
        if (r.status == RequestStatus::Ok) {
            bool finite = !r.posteriorMean.empty();
            for (double m : r.posteriorMean)
                finite = finite && std::isfinite(m);
            nonFinite += finite ? 0 : 1;
        }
        // An amortized answer is never also escalated; with the tier off
        // no response may claim either.
        if ((r.servedAmortized && r.escalated)
            || (!amortized && (r.servedAmortized || r.escalated)))
            ++wrongTier;
    }

    const std::size_t n = due.size();
    const std::size_t terminal = ok + shed + miss + failed;
    record.check(tag + ".terminal",
                 queued == 0 && terminal == n && responses.size() - firstId == n,
                 "ok " + std::to_string(ok) + " + shed " + std::to_string(shed)
                     + " + miss " + std::to_string(miss) + " + failed "
                     + std::to_string(failed) + " of " + std::to_string(n)
                     + " requests, " + std::to_string(queued) + " still queued");
    // Arrivals are timestamps, not sends: each response's arrival must be
    // its scheduled due time, so the generator is never late.
    std::sort(arrivals.begin(), arrivals.end());
    record.check(tag + ".arrival_is_due", arrivals == due,
                 "response arrival times equal the scheduled due times");
    record.check(tag + ".finite_means", nonFinite == 0,
                 std::to_string(nonFinite)
                     + " ok responses with a missing or non-finite posterior mean");
    record.check(tag + ".tier_flags", wrongTier == 0,
                 std::to_string(wrongTier) + " responses with a wrong-tier flag");

    const auto tier1 = server.amortStats();
    const double tierRequests = static_cast<double>(tier1.requests - tier0.requests);
    const double tierServed = static_cast<double>(tier1.served - tier0.served);
    const double tierEscalated = static_cast<double>(tier1.escalated - tier0.escalated);
    const double tierCold = static_cast<double>(tier1.cold - tier0.cold);
    if (amortized) {
        // Every key is amortizable, so every request that reaches service
        // enters the tier and ends in exactly one of its outcomes.
        record.check(tag + ".tier_accounting",
                     tierServed + tierEscalated + tierCold == tierRequests
                         && tierRequests == static_cast<double>(n - shed),
                     "served " + std::to_string(tierServed) + " + escalated "
                         + std::to_string(tierEscalated) + " + cold "
                         + std::to_string(tierCold) + " vs tier requests "
                         + std::to_string(tierRequests) + " of "
                         + std::to_string(n - shed) + " admitted");
    }

    if (prefix != nullptr) {
        const std::string p = prefix;
        for (std::size_t c = 0; c < bayes::serve::kNumSloClasses; ++c)
            record.samples(p + "latency." + bayes::serve::sloClassName(static_cast<SloClass>(c)),
                           latency[c]);
        record.sample(p + "replay_wall_s", wall);
        record.sample(p + "replay_cpu_s", cpu);
        record.sample(p + "replay_requests", static_cast<double>(n));
        record.sample(p + "outcome.ok", static_cast<double>(ok));
        record.sample(p + "warm_hits", static_cast<double>(server.warmHits() - hits0));
        record.sample(p + "warm_misses", static_cast<double>(server.warmMisses() - misses0));
        record.sample(p + "amort.requests", tierRequests);
        record.sample(p + "amort.served", tierServed);
        record.sample(p + "amort.escalated", tierEscalated);
        record.sample(p + "amort.cold", tierCold);
    }

    // Per-request timeline on the server's virtual clock (traced run).
    // Request spans are roots: their clock is not the replay span's, so
    // the replay is named in the job id instead.
    if (record.tracing()) {
        for (std::size_t id = firstId; id < responses.size(); ++id) {
            const Response& r = responses[id];
            const std::string job = tag + ":req" + std::to_string(id);
            const int parent = record.addSpan(
                std::string("serve.request.") + bayes::serve::sloClassName(r.slo), job,
                0, r.arrivalSeconds * 1e6,
                (r.completionSeconds - r.arrivalSeconds) * 1e6);
            record.addSpan("serve.queue_wait", job, parent, r.arrivalSeconds * 1e6,
                           r.queueWaitSeconds * 1e6);
            record.addSpan(r.servedAmortized ? "amortize.hit" : "samplers.run", job,
                           parent, r.startSeconds * 1e6, r.serviceSeconds * 1e6);
        }
    }
    std::fprintf(stderr,
                 "perfbench: %s %zu requests ok=%zu shed=%zu miss=%zu failed=%zu "
                 "tier served=%.0f escalated=%.0f cold=%.0f host %.2fs cpu %.2fs\n",
                 tag.c_str(), n, ok, shed, miss, failed, tierServed, tierEscalated, tierCold,
                 wall, cpu);

    Replay out;
    out.requests = n;
    out.ok = ok;
    out.served = served;
    out.billedSeconds = billed;
    out.interactiveTail = tailOf(latency[static_cast<std::size_t>(SloClass::Interactive)]);
    out.drainSeconds = std::max(0.0, server.virtualNow() - due.back());
    return out;
}

/**
 * One set-up, identical work on every seed: generate every key's data,
 * start a server and the pool, serve one request per key twice (this
 * warms the server's model cache, and with the tier on walks every key
 * through cold, install and gate), then a short discarded warm-up replay.
 */
std::unique_ptr<bayes::serve::Server>
setUp(Record& record, bool amortized, int rep)
{
    const std::vector<Tenant> mix = amortized ? repeatMix() : openMix();
    const double w0 = wallSeconds();
    const double c0 = cpuSeconds();
    {
        Span span(record, "workloads.make", "setup");
        for (const Tenant& t : mix)
            bayes::workloads::makeWorkload(t.spec.workload, t.spec.dataScale);
        span.setCount(static_cast<double>(mix.size()));
    }

    auto server = std::make_unique<bayes::serve::Server>(serverConfig(amortized));
    const std::string tag = "setup" + std::to_string(rep);
    for (int round = 0; round < 2; ++round) {
        std::vector<Request> warm;
        for (std::size_t t = 0; t < mix.size(); ++t)
            warm.push_back(makeRequest(mix[t].spec, server->virtualNow(),
                                       subSeed(kWarmupSeed, t)));
        replay(record, *server, amortized, std::move(warm),
               tag + ".keys" + std::to_string(round), nullptr);
    }
    replay(record, *server, amortized,
           makeTrace(mix, amortized ? kRepeatRate : kOpenRate, kWarmupRequests,
                     kWarmupSeed, server->virtualNow()),
           tag + ".warmup", nullptr);
    record.sample("setup_cpu_s", cpuSeconds() - c0);
    record.sample("setup_wall_s", wallSeconds() - w0);
    return server;
}

/**
 * Capacity: bisect the arrival rate between 0.5 and 2 times the service
 * rate measured at the nominal rate, replaying one time-scaled trace per
 * probe. A probe passes when every request is served in time, the
 * interactive tail meets kTailLimitSeconds and the queue drains within
 * kDrainLimitSeconds of the last arrival.
 */
void
searchCapacity(Record& record, bayes::serve::Server& server, std::uint64_t seed,
               double serviceRate)
{
    double lo = 0.5 * serviceRate;
    double hi = 2.0 * serviceRate;
    for (int probe = 0; probe < kProbes; ++probe) {
        const double rate = std::sqrt(lo * hi);
        const Replay out = replay(
            record, server, false,
            makeTrace(openMix(), rate, kProbeRequests, subSeed(seed, 999), server.virtualNow()),
            "probe" + std::to_string(probe), nullptr);
        const bool pass = out.ok == out.requests
            && out.interactiveTail <= kTailLimitSeconds
            && out.drainSeconds <= kDrainLimitSeconds;
        record.sample("capacity.probe_rate", rate);
        record.sample("capacity.probe_pass", pass ? 1.0 : 0.0);
        (pass ? lo : hi) = rate;
    }
    record.sample("capacity_rps", std::sqrt(lo * hi));
}

void
runServe(const RunOptions& options, Record& record, bool amortized)
{
    std::unique_ptr<bayes::serve::Server> server;
    for (int rep = 0; rep < kSetups; ++rep)
        server = setUp(record, amortized, rep);

    const std::vector<Tenant> mix = amortized ? repeatMix() : openMix();
    const double rate = amortized ? kRepeatRate : kOpenRate;
    const std::size_t requests = amortized ? kRepeatRequests : kOpenRequests;
    record.info("serve.rate_rps", rate);
    record.info("serve.requests_per_replay", static_cast<double>(requests));
    // Replay r of the run. serve_repeat replays each start on a fresh
    // server, so every key's first request in the replay is cold.
    auto run = [&](int r, const std::string& tag, const char* prefix) {
        if (amortized)
            server = std::make_unique<bayes::serve::Server>(serverConfig(true));
        auto trace = makeTrace(mix, rate, requests,
                               subSeed(options.seed, static_cast<std::uint64_t>(r)),
                               server->virtualNow());
        return replay(record, *server, amortized, std::move(trace), tag, prefix);
    };

    if (options.trace) {
        // The same replay without and with the program's own obs tracer
        // (the host-time ratio is the tracing overhead), then the layer
        // probes.
        run(0, "replay0", "");
        startObsTrace();
        run(0, "obs0", "obs.");
        stopObsTrace(options.obsTracePath);
        measureLayers(record);
        return;
    }

    double billed = 0.0;
    double served = 0.0;
    for (int r = 0; r < kReplays; ++r) {
        const Replay out = run(r, "replay" + std::to_string(r), "");
        billed += out.billedSeconds;
        served += static_cast<double>(out.served);
    }
    if (!amortized)
        searchCapacity(record, *server, options.seed, served / billed);
}

} // namespace

void
runServeOpen(const RunOptions& options, Record& record)
{
    runServe(options, record, false);
}

void
runServeRepeat(const RunOptions& options, Record& record)
{
    runServe(options, record, true);
}

} // namespace perfbench
