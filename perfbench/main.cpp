/**
 * @file
 * perfbench runner. Runs one workload and writes its raw record (samples,
 * counts, checks, spans, provenance) as JSON to --out; perfbench/run.py
 * builds this binary and turns the record into metrics.
 *
 *   perfbench --workload <fit_elided|serve_open|serve_repeat> --seed <n>
 *             --trace <0|1> --out <record.json>
 *             [--obs-trace <file>] [--git-sha <sha>]
 *   perfbench --make-reference <file> [--iterations <n>]
 *
 * Exit status: 0 when every correctness check passed, 1 when one failed,
 * 2 on a usage error or an exception.
 */
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>
#include <unistd.h>

#include "perfbench.hpp"

namespace {

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload <fit_elided|serve_open|serve_repeat> "
                 "--seed <n> --trace <0|1> --out <file> "
                 "[--obs-trace <file>] [--git-sha <sha>]\n"
                 "       perfbench --make-reference <file> [--iterations <n>]\n");
    return 2;
}

} // namespace

int
main(int argc, char** argv)
{
    perfbench::RunOptions options;
    std::string out, reference, gitSha = "unknown";
    int referenceIterations = 4000;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        const std::string value = argv[i + 1];
        if (flag == "--workload")
            options.workload = value;
        else if (flag == "--seed")
            options.seed = std::strtoull(value.c_str(), nullptr, 10);
        else if (flag == "--trace")
            options.trace = value == "1";
        else if (flag == "--out")
            out = value;
        else if (flag == "--obs-trace")
            options.obsTracePath = value;
        else if (flag == "--git-sha")
            gitSha = value;
        else if (flag == "--make-reference")
            reference = value;
        else if (flag == "--iterations")
            referenceIterations = std::atoi(value.c_str());
        else
            return usage();
    }
    if (argc % 2 == 0)
        return usage();

    try {
        if (!reference.empty())
            return perfbench::makeReference(reference, referenceIterations);
        if (out.empty())
            return usage();

        perfbench::Record record;
        record.setTracing(options.trace);
        record.info("workload", options.workload);
        record.info("seed", std::to_string(options.seed));
        record.info("trace", options.trace ? 1.0 : 0.0);
        record.info("nproc", static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN)));
        record.info("pool_width", static_cast<double>(perfbench::kPoolWidth));
        record.info("compiler", PERFBENCH_COMPILER);
        record.info("build_type", PERFBENCH_BUILD_TYPE);
        record.info("git_sha", gitSha);

        const double t0 = perfbench::wallSeconds();
        if (options.workload == "fit_elided")
            perfbench::runFitElided(options, record);
        else if (options.workload == "serve_open")
            perfbench::runServeOpen(options, record);
        else if (options.workload == "serve_repeat")
            perfbench::runServeRepeat(options, record);
        else
            return usage();
        record.info("run_wall_s", perfbench::wallSeconds() - t0);

        std::ofstream file(out);
        file << record.json() << "\n";
        if (!file) {
            std::fprintf(stderr, "perfbench: cannot write %s\n", out.c_str());
            return 2;
        }
        return record.allChecksPassed() ? 0 : 1;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: error: %s\n", e.what());
        return 2;
    }
}
