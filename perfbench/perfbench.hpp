/**
 * @file
 * Workload runners of the repository benchmark. Each one builds its
 * inputs from the run seed, sets up (timed, several times), measures a
 * fixed amount of its own traffic, checks the outputs, and leaves raw
 * samples, counts and spans in a Record for perfbench/report.py to turn
 * into metrics.
 */
#pragma once

#include <cstdint>
#include <string>

#include "record.hpp"

namespace perfbench {

/**
 * Fixed width of the shared worker pool. Chosen for the 4-core host the
 * benchmark was defined on and recorded in every output; never read from
 * hardware_concurrency at run time.
 */
inline constexpr int kPoolWidth = 4;

/** Set-ups per run; setup_s is their median. */
inline constexpr int kSetups = 3;

struct RunOptions
{
    std::string workload;
    std::uint64_t seed = 1;
    bool trace = false;
    /** Where a traced run writes the program's own obs trace (Chrome JSON). */
    std::string obsTracePath;
};

/** Closed loop: the ten suite models at Table-I settings, elided NUTS. */
void runFitElided(const RunOptions& options, Record& record);

/** Open-loop default tenant mix at the nominal rate, plus capacity search. */
void runServeOpen(const RunOptions& options, Record& record);

/** Open-loop repeat-heavy keys with the amortized tier on. */
void runServeRepeat(const RunOptions& options, Record& record);

/**
 * Per-layer microbenchmarks at fixed shapes, identical on every
 * workload: single- and K-lane evaluation, executor iteration cost,
 * pool round trip, admission estimate, summaries, Pareto-k̂, the
 * amortized fit and gate. Run only in the traced run.
 */
void measureLayers(Record& record);

/**
 * Write the reference posterior summary the fit_elided correctness
 * check compares against: one long un-elided NUTS run per suite model.
 */
int makeReference(const std::string& path, int iterations);

/** Start/stop the program's own obs tracer around a traced unit. */
void startObsTrace();
void stopObsTrace(const std::string& path);

} // namespace perfbench
