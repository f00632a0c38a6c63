#include "record.hpp"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <sstream>

namespace perfbench {

double
wallSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
cpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

void
Record::sample(const std::string& name, double value)
{
    samples_[name].push_back(value);
}

void
Record::samples(const std::string& name, const std::vector<double>& values)
{
    auto& series = samples_[name];
    series.insert(series.end(), values.begin(), values.end());
}

void
Record::info(const std::string& name, const std::string& value)
{
    info_[name] = jsonString(value);
}

void
Record::info(const std::string& name, double value)
{
    info_[name] = jsonNumber(value);
}

void
Record::check(const std::string& name, bool ok, const std::string& detail)
{
    checks_.push_back({name, ok, detail});
    if (!ok)
        std::fprintf(stderr, "perfbench: CHECK FAILED %s: %s\n", name.c_str(),
                     detail.c_str());
}

void
Record::raw(const std::string& name, std::string json)
{
    raw_[name] = std::move(json);
}

int
Record::open(const std::string& name, const std::string& job, int parent)
{
    if (!tracing_)
        return 0;
    SpanRecord span;
    span.id = static_cast<int>(spans_.size()) + 1;
    span.parent = parent;
    span.name = name;
    span.job = job;
    span.startUs = (wallSeconds() - epoch_) * 1e6;
    span.durUs = -1.0; // open
    spans_.push_back(span);
    return span.id;
}

void
Record::close(int id, double count)
{
    if (id <= 0)
        return;
    SpanRecord& span = spans_[static_cast<std::size_t>(id - 1)];
    span.durUs = (wallSeconds() - epoch_) * 1e6 - span.startUs;
    span.count = count;
}

int
Record::addSpan(const std::string& name, const std::string& job, int parent,
                double startUs, double durUs, double count)
{
    if (!tracing_)
        return 0;
    SpanRecord span;
    span.id = static_cast<int>(spans_.size()) + 1;
    span.parent = parent;
    span.name = name;
    span.job = job;
    span.startUs = startUs;
    span.durUs = durUs;
    span.count = count;
    spans_.push_back(span);
    return span.id;
}

bool
Record::allChecksPassed() const
{
    for (const Check& c : checks_)
        if (!c.ok)
            return false;
    return true;
}

std::string
Record::json() const
{
    std::ostringstream os;
    os << "{\"info\":{";
    bool first = true;
    for (const auto& [k, v] : info_) {
        os << (first ? "" : ",") << jsonString(k) << ":" << v;
        first = false;
    }
    os << "},\"samples\":{";
    first = true;
    for (const auto& [k, v] : samples_) {
        os << (first ? "" : ",") << jsonString(k) << ":" << jsonArray(v);
        first = false;
    }
    os << "},\"checks\":[";
    first = true;
    for (const Check& c : checks_) {
        os << (first ? "" : ",") << "{\"name\":" << jsonString(c.name)
           << ",\"ok\":" << (c.ok ? "true" : "false")
           << ",\"detail\":" << jsonString(c.detail) << "}";
        first = false;
    }
    os << "],\"spans\":[";
    first = true;
    for (const SpanRecord& s : spans_) {
        os << (first ? "" : ",") << "{\"id\":" << s.id
           << ",\"parent\":" << s.parent << ",\"name\":" << jsonString(s.name)
           << ",\"job\":" << jsonString(s.job)
           << ",\"ts\":" << jsonNumber(s.startUs)
           << ",\"dur\":" << jsonNumber(s.durUs)
           << ",\"count\":" << jsonNumber(s.count) << "}";
        first = false;
    }
    os << "]";
    for (const auto& [k, v] : raw_)
        os << "," << jsonString(k) << ":" << v;
    os << "}";
    return os.str();
}

std::string
jsonString(const std::string& s)
{
    std::string out = "\"";
    for (char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out + "\"";
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
jsonArray(const std::vector<double>& values)
{
    std::string out = "[";
    for (std::size_t i = 0; i < values.size(); ++i) {
        if (i > 0)
            out += ",";
        out += jsonNumber(values[i]);
    }
    return out + "]";
}

std::uint64_t
subSeed(std::uint64_t seed, std::uint64_t index)
{
    std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (index + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

} // namespace perfbench
