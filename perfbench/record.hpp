/**
 * @file
 * In-memory record of one benchmark run: raw samples (exact counts
 * among them), correctness checks, provenance and (in a traced run)
 * spans. The runner fills it while it measures and writes it out once,
 * at the end, as one JSON document; perfbench/report.py derives every
 * metric from that document.
 *
 * Spans are taken from the benchmark's own code around calls into a
 * layer's public functions. Each carries the layer-prefixed name, the
 * job (fit or request) it belongs to, and the span that caused it, so
 * the report can compute self time as span minus children.
 */
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/** Wall-clock seconds on a monotonic clock. */
double wallSeconds();

/** CPU seconds consumed by the whole process (all threads). */
double cpuSeconds();

class Record
{
  public:
    /** Append a raw sample to the series @p name. */
    void sample(const std::string& name, double value);
    /** Append several samples to the series @p name. */
    void samples(const std::string& name, const std::vector<double>& values);
    /** Set a provenance/info field. */
    void info(const std::string& name, const std::string& value);
    void info(const std::string& name, double value);
    /** Record a correctness check; a false @p ok fails the run. */
    void check(const std::string& name, bool ok, const std::string& detail);
    /** Attach an opaque JSON value (already serialized) under @p name. */
    void raw(const std::string& name, std::string json);

    /** True while spans are being recorded (the traced run). */
    bool tracing() const { return tracing_; }
    void setTracing(bool on) { tracing_ = on; }

    /** Open a span; returns its id (0 when not tracing). */
    int open(const std::string& name, const std::string& job, int parent);
    /** Close span @p id, attributing @p count operations to it. */
    void close(int id, double count = 0.0);
    /** Append a finished span built from externally known times. */
    int addSpan(const std::string& name, const std::string& job, int parent,
                double startUs, double durUs, double count = 0.0);

    bool allChecksPassed() const;

    /** Serialize the whole record as one JSON object. */
    std::string json() const;

  private:
    /** One recorded interval. */
    struct SpanRecord
    {
        int id = 0;
        int parent = 0; ///< 0 = root
        std::string name;
        std::string job; ///< shared by all spans of one fit or request
        double startUs = 0.0;
        double durUs = 0.0;
        double count = 0.0; ///< operations the span covers (0 = not counted)
    };

    std::map<std::string, std::vector<double>> samples_;
    std::map<std::string, std::string> info_;
    std::map<std::string, std::string> raw_;
    struct Check
    {
        std::string name;
        bool ok;
        std::string detail;
    };
    std::vector<Check> checks_;
    std::vector<SpanRecord> spans_;
    bool tracing_ = false;
    double epoch_ = wallSeconds();
};

/** RAII span over one layer call; a no-op when the record is not tracing. */
class Span
{
  public:
    Span(Record& record, const std::string& name, const std::string& job,
         int parent = 0)
        : record_(record), id_(record.open(name, job, parent))
    {
    }
    ~Span() { record_.close(id_, count_); }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

    int id() const { return id_; }
    /** Operations covered by this span (per-operation cost = dur/count). */
    void setCount(double count) { count_ = count; }

  private:
    Record& record_;
    int id_;
    double count_ = 0.0;
};

/** JSON helpers shared by the workload runners. */
std::string jsonString(const std::string& s);
std::string jsonNumber(double v);
std::string jsonArray(const std::vector<double>& values);

/** Deterministic 64-bit mix of a base seed and an index (splitmix64). */
std::uint64_t subSeed(std::uint64_t seed, std::uint64_t index);

} // namespace perfbench
