"""Turn one perfbench record into metrics, check it, and print the report.

The C++ runner (perfbench/main.cpp) leaves raw samples (exact counts
among them), correctness checks, provenance and spans in a JSON record. This module
derives every metric from that record:

* untraced runs (``--trace 0``): the end-to-end metrics of BENCHMARK.json;
* traced runs (``--trace 1``): the per-layer metrics, read from the
  benchmark's own spans and counts. Self time is a span's duration minus
  the part its child spans cover.

It can also be run on a saved record:
``python3 perfbench/report.py <record.json> [--trace 0|1]``.
"""

import json
import math
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference.json")

MODELS = ["12cities", "ad", "ode", "memory", "votes",
          "tickets", "disease", "racial", "butterfly", "survival"]

# Percentile ladder for tails: the highest with >= 10 samples beyond it.
TAIL_LADDER = (0.99, 0.95, 0.90, 0.75, 0.50)
# A converged fit's posterior mean may sit this many combined MCSEs
# (fit and reference) from the reference mean.
Z_TOL = 6.0


def quantile(xs, q):
    """Type-7 (linear interpolation) quantile, as support/stats.cpp."""
    s = sorted(xs)
    if not s:
        return float("nan")
    h = (len(s) - 1) * q
    lo = math.floor(h)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (h - lo) * (s[hi] - s[lo])


def median(xs):
    return quantile(xs, 0.5)


def tail(xs):
    """(value, percentile, samples beyond) of the ladder's highest supported percentile."""
    for p in TAIL_LADDER:
        if len(xs) * (1.0 - p) >= 10:
            return quantile(xs, p), p, len(xs) * (1.0 - p)
    return float("nan"), 0.0, 0.0


class Metrics:
    """Ordered metric table: name -> (value, unit, sample count, note)."""

    def __init__(self):
        self.rows = {}

    def add(self, name, value, unit, n, note=""):
        self.rows[name] = (float(value), unit, n, note)

    def json(self):
        return {k: {"value": v[0], "unit": v[1]} for k, v in self.rows.items()}


# ---------------------------------------------------------------- spans --

def spans_by(record, name):
    return [s for s in record["spans"] if s["name"] == name]


def add_self_times(record):
    """Give every span a "self" time in us: its duration minus the union of
    the intervals its child spans cover. Layer times below use self time."""
    children = {}
    for s in record["spans"]:
        if s["parent"]:
            children.setdefault(s["parent"], []).append(s)
    for s in record["spans"]:
        covered = 0.0
        end = s["ts"]
        for c in sorted(children.get(s["id"], []), key=lambda c: c["ts"]):
            lo = max(c["ts"], end)
            hi = c["ts"] + c["dur"]
            if hi > lo:
                covered += hi - lo
                end = hi
        s["self"] = s["dur"] - covered


def per_call_us(record, name, job):
    """Median per-call self time (us) of a microbenchmark's timed blocks."""
    blocks = [s["self"] / s["count"] for s in spans_by(record, name)
              if s["job"] == job and s["count"] > 0]
    return median(blocks) if blocks else float("nan")


# --------------------------------------------------------- end to end --

def fit_end_to_end(record, m):
    smp = record["samples"]
    passes = len(smp["pass_wall_s"])
    fits = [w for k in MODELS for w in smp["fit_wall_s." + k]]
    converged = sum(c for k in MODELS for c in smp["fit_converged." + k])
    jobs = len(fits)
    # Suite time: each model's best pass, summed. Elided time is heavy-
    # tailed upward (a slow chain runs a model to its whole budget); the
    # best of the passes keeps one seed's slow chain from setting the
    # run's figure.
    per_model = [min(smp["fit_wall_s." + k]) for k in MODELS]
    suite_wall = sum(per_model)
    suite_cpu = sum(min(smp["fit_cpu_s." + k]) for k in MODELS)
    m.add("cpu_ms_per_req", suite_cpu / len(MODELS) * 1e3, "ms", passes,
          "converge_cpu_s / 10 fits")
    m.add("ok_frac", converged / jobs, "ratio", jobs, "converged fits / fits")
    slowest = per_model.index(max(per_model))
    aliases = [
        ("converge_suite_s", suite_wall, "s", passes,
         "wall time to converge all ten models once (best pass per model)"),
        ("converge_cpu_s", suite_cpu, "s", passes,
         "process CPU-seconds for the same work"),
        ("slowest_fit_s", per_model[slowest], "s", passes,
         "best time-to-converged of the slowest model (%s)" % MODELS[slowest]),
        ("fail_frac", 1.0 - converged / jobs, "ratio", jobs,
         "non-converged fits / fits"),
    ]
    return aliases


def serve_end_to_end(record, m):
    smp = record["samples"]
    walls = smp["replay_wall_s"]
    cpus = smp["replay_cpu_s"]
    reqs = smp["replay_requests"]
    replays = len(walls)
    attempted = int(sum(reqs))
    ok = int(sum(smp["outcome.ok"]))
    interactive = smp.get("latency.interactive", [])
    standard = smp.get("latency.standard", [])
    m.add("cpu_ms_per_req", median([c / r * 1e3 for c, r in zip(cpus, reqs)]),
          "ms", replays, "median over replays of runSchedule process CPU / requests")
    m.add("ok_frac", ok / attempted, "ratio", attempted, "ok requests / requests")
    value, p, beyond = tail(interactive)
    s_tail, s_p, s_beyond = tail(standard)
    aliases = [
        ("host_ms_per_req", median([w / r * 1e3 for w, r in zip(walls, reqs)]), "ms",
         replays, "median over replays of runSchedule host wall / requests"),
        ("interactive_p50_s", median(interactive), "s", len(interactive),
         "from due time, virtual clock"),
        ("interactive_tail_s", value, "s", len(interactive),
         "p%g, %g beyond" % (p * 100, beyond)),
        ("standard_p50_s", median(standard), "s", len(standard), ""),
        ("standard_tail_s", s_tail, "s", len(standard),
         "p%g, %g beyond" % (s_p * 100, s_beyond)),
        ("fail_frac", 1.0 - ok / attempted, "ratio", attempted,
         "(failed + shed + missed) / requests"),
    ]
    if "capacity_rps" in smp:
        probes = ", ".join(
            "%.1f:%s" % (r, "pass" if ok_ else "fail")
            for r, ok_ in zip(smp["capacity.probe_rate"], smp["capacity.probe_pass"]))
        aliases.append(("capacity_rps", smp["capacity_rps"][0], "1/s",
                        len(smp["capacity.probe_rate"]), "probes " + probes))
    return aliases


# ------------------------------------------------------------ per layer --

def per_layer(record, m):
    workload = record["info"]["workload"]
    smp = record["samples"]

    add_self_times(record)
    make = [s["self"] * 1e-6 for s in spans_by(record, "workloads.make")]
    m.add("workloads.make_s", median(make), "s", len(make), "data generation per set-up")

    for k in MODELS:
        m.add("ppl.grad_eval_us." + k, per_call_us(record, "ppl.logProbGrad", k), "us",
              3, "single-lane logProbGrad at the origin")
    m.add("ppl.batch_eval_us_per_lane.ad.k2",
          per_call_us(record, "ppl.logProbGradBatch", "ad.k2") / 2, "us", 3,
          "2-lane logProbGradBatch on ad / 2")
    m.add("samplers.run_us_per_iter.mh",
          per_call_us(record, "samplers.run", "mh") / 200, "us", 3,
          "samplers::run, ad MH 2 chains x 200 iterations, / 200")
    m.add("support.pool_roundtrip_us",
          per_call_us(record, "support.ThreadPool.submit", "empty"), "us", 3,
          "submit + wait of an empty task")
    m.add("serve.estimate_us",
          per_call_us(record, "serve.estimatedServiceSeconds", "ad"), "us", 3,
          "estimatedServiceSeconds on a warm key")
    m.add("diagnostics.summarize_ms",
          per_call_us(record, "diagnostics.summarize", "12cities.hmc2") * 1e-3, "ms", 3,
          "summarize of a 2-chain serve result")
    m.add("diagnostics.pareto_khat_us",
          per_call_us(record, "diagnostics.paretoKhat", "n128"), "us", 3,
          "paretoKhat over 128 log-ratios")
    fits = [s["self"] * 1e-6 for s in spans_by(record, "amortize.fit")]
    m.add("amortize.fit_s", median(fits), "s", len(fits), "AmortizedCache::fit, ad 0.25")
    m.add("amortize.gate_us", per_call_us(record, "amortize.gate", "ad.0.25"), "us", 3,
          "AmortizedCache::gate")

    # Fit traffic (fit_elided; zero elsewhere). Pass 0 without the obs tracer.
    fit = workload == "fit_elided"
    run_s = {}
    for k in MODELS:
        spans = [s for s in spans_by(record, "elide.runWithElision")
                 if s["job"] == "fit:%s:0" % k]
        run_s[k] = spans[0]["self"] * 1e-6 if spans else 0.0
        m.add("elide.run_s." + k, run_s[k], "s", len(spans), "runWithElision span")

    def first(key):
        return smp[key][0] if key in smp else 0.0

    evals = {k: first("grad_evals." + k) for k in MODELS}
    cpu = {k: first("fit_cpu_s." + k) for k in MODELS}
    total_evals = sum(evals.values())
    m.add("ad.tape_nodes", sum(first("tape_nodes." + k) for k in MODELS), "count", 1,
          "suite total, pass 0")
    m.add("samplers.grad_evals", total_evals, "count", 1, "suite total, pass 0")
    m.add("elide.stop_draws", sum(first("stop_draws." + k) for k in MODELS), "count", 1,
          "suite total, pass 0")
    total_run = sum(run_s.values())
    m.add("samplers.evals_per_s", total_evals / total_run if total_run else 0.0, "1/s",
          1, "grad evals / runWithElision wall")
    total_cpu = sum(cpu.values())
    eval_cpu = sum(evals[k] * m.rows["ppl.grad_eval_us." + k][0] * 1e-6 for k in MODELS)
    m.add("samplers.overhead_frac", 1.0 - eval_cpu / total_cpu if total_cpu else 0.0,
          "ratio", 1, "1 - grad evals x single-lane eval time / run CPU-s (base %.2f CPU-s)"
          % total_cpu)
    replay = [s["self"] * 1e-6 for s in spans_by(record, "elide.detectorRhat.replay")
              if s["job"].startswith("fit:")]
    m.add("elide.detector_s", sum(replay), "s", len(replay),
          "detectorRhat replayed at every check, suite total")
    stop = [s["self"] / s["count"] for s in spans_by(record, "elide.detectorRhat.stop")
            if s["job"].startswith("fit:") and s["count"] > 0]
    m.add("elide.rhat_check_us", sum(stop) / len(stop) if stop else 0.0, "us", len(stop),
          "detectorRhat at the stop window, mean over models")
    budget = sum(first("budget_iterations." + k) for k in MODELS)
    executed = sum(first("executed_iterations." + k) for k in MODELS)
    m.add("elide.elided_frac", 1.0 - executed / budget if budget else 0.0, "ratio", 1,
          "base: %d budget iterations per chain, suite total" % budget)

    # Serve traffic (serve_*; zero on fit_elided). Replay 0 without the obs tracer.
    requests = [s for s in record["spans"]
                if s["job"].startswith("replay0:") and s["name"].startswith("serve.request.")]
    by_parent = {}
    for s in record["spans"]:
        if s["job"].startswith("replay0:") and s["parent"]:
            by_parent.setdefault(s["parent"], []).append(s)
    waits, service = [], {"interactive": [], "standard": [], "batch": []}
    for r in requests:
        cls = r["name"].rsplit(".", 1)[1]
        for c in by_parent.get(r["id"], []):
            if c["name"] == "serve.queue_wait" and cls == "interactive":
                waits.append(c["self"] * 1e-6)
            elif c["name"] in ("samplers.run", "amortize.hit"):
                service[cls].append(c["self"] * 1e-6)
    all_service = [x for v in service.values() for x in v]
    zero = (0.0, 0.0, 0)
    m.add("serve.queue_wait_p50_s", median(waits) if waits else 0.0, "s", len(waits),
          "interactive")
    wt = tail(waits) if waits else zero
    m.add("serve.queue_wait_tail_s", wt[0], "s", len(waits),
          "interactive p%g, %g beyond" % (wt[1] * 100, wt[2]))
    for cls in ("interactive", "standard"):
        xs = service[cls]
        m.add("serve.service_p50_s." + cls, median(xs) if xs else 0.0, "s", len(xs), "")
    st = tail(all_service) if all_service else zero
    m.add("serve.service_tail_s", st[0], "s", len(all_service),
          "all classes p%g, %g beyond" % (st[1] * 100, st[2]))
    hits, misses = first("warm_hits"), first("warm_misses")
    m.add("serve.warm_hit_ratio", hits / (hits + misses) if hits + misses else 0.0,
          "ratio", 1, "base: %d warm-cache lookups" % (hits + misses))
    sched = [s for s in spans_by(record, "serve.runSchedule") if s["job"] == "replay0"]
    billed = sum(all_service)
    host = sched[0]["self"] * 1e-6 if sched else 0.0
    m.add("serve.billed_frac", billed / host if host else 0.0, "ratio", len(all_service),
          "sum of service / runSchedule host wall (base %.3f s)" % host)

    tier_requests = first("amort.requests")
    m.add("amortize.served_ratio",
          first("amort.served") / tier_requests if tier_requests else 0.0, "ratio", 1,
          "base: %d amortizable requests" % tier_requests)
    m.add("amortize.escalated", first("amort.escalated"), "count", 1, "")
    m.add("amortize.cold", first("amort.cold"), "count", 1, "")
    hit = [c["self"] for r in requests for c in by_parent.get(r["id"], [])
           if c["name"] == "amortize.hit"]
    m.add("amortize.hit_service_us", median(hit) if hit else 0.0, "us", len(hit),
          "service time of a cache answer")

    # Tracing overhead: the same unit without and with the obs tracer.
    if fit:
        base, traced = first("pass_wall_s"), first("obs.pass_wall_s")
    else:
        base, traced = first("replay_wall_s"), first("obs.replay_wall_s")
    m.add("obs.trace_overhead_frac", traced / base - 1.0 if base else 0.0, "ratio", 1,
          "obs-traced / untraced host time - 1 (base %.3f s)" % base)


# ---------------------------------------------------------- correctness --

def check_reference(record):
    """Converged fits' posterior means against the committed long-run reference."""
    with open(REFERENCE) as f:
        ref = json.load(f)["models"]
    failures = []
    worst = 0.0
    for fit in record.get("fits", []):
        if not fit["converged"]:
            continue
        r = ref[fit["model"]]
        for i, (m_, s_) in enumerate(zip(fit["mean"], fit["mcse"])):
            rm, rs = r["mean"][i], r["mcse"][i]
            if m_ is None or rm is None:
                failures.append("%s[%d] non-finite mean" % (fit["model"], i))
                continue
            se = math.hypot(s_ or 0.0, rs or 0.0)
            z = abs(m_ - rm) / se if se > 0 else (0.0 if m_ == rm else math.inf)
            worst = max(worst, z)
            if z > Z_TOL:
                failures.append("%s pass %d coord %d: mean %.4g vs reference %.4g "
                                "(%.1f MCSE)" % (fit["model"], fit["pass"], i, m_, rm, z))
    return failures, worst


def outcomes(record):
    """(attempted, failed) jobs of the measured traffic: fits that did not
    converge, or requests that were shed, missed their deadline or failed."""
    if record["info"]["workload"] == "fit_elided":
        fits = record["fits"]
        return len(fits), sum(1 for f in fits if not f["converged"])
    smp = record["samples"]
    attempted = int(sum(smp["replay_requests"]))
    return attempted, attempted - int(sum(smp["outcome.ok"]))


def report(record, trace):
    info = record["info"]
    workload = info["workload"]
    lines = []
    checks = record["checks"]
    failures = [c for c in checks if not c["ok"]]
    m = Metrics()
    if workload == "fit_elided":
        ref_failures, worst = check_reference(record)
        lines.append("check fit_elided.reference: %d converged fits, worst |mean - ref| "
                     "= %.2f combined MCSE (limit %.0f)"
                     % (sum(f["converged"] for f in record.get("fits", [])), worst, Z_TOL))
        failures += [{"name": "fit_elided.reference", "detail": d} for d in ref_failures]
    attempted, failed = outcomes(record)
    aliases = []
    if trace:
        per_layer(record, m)
    else:
        aliases = (fit_end_to_end if workload == "fit_elided" else serve_end_to_end)(record, m)
        # Set-up time is gated as process CPU time, like the measured work;
        # its wall time is printed beside it.
        setup = record["samples"]["setup_cpu_s"]
        m.add("setup_s", median(setup), "s", len(setup),
              "median over set-ups of process CPU-s")
        setup_wall = record["samples"]["setup_wall_s"]
        aliases.append(("setup_wall_s", median(setup_wall), "s", len(setup_wall),
                        "median over set-ups of wall time"))

    prov = {k: info[k] for k in ("workload", "seed", "nproc", "pool_width",
                                 "compiler", "build_type", "git_sha")}
    lines.insert(0, "provenance " + json.dumps(prov, sort_keys=True))
    n_ok = sum(1 for c in checks if c["ok"])
    lines.append("checks: %d passed, %d failed" % (n_ok, len(failures)))
    for f in failures[:20]:
        lines.append("CHECK FAILED %s: %s" % (f["name"], f["detail"]))
    for name, (value, unit, n, note) in m.rows.items():
        lines.append("metric %-36s %14.6g %-6s n=%-5s %s" % (name, value, unit, n, note))
    for name, value, unit, n, note in aliases:
        lines.append("alias %-37s %14.6g %-6s n=%-5s %s" % (name, value, unit, n, note))
    return not failures, attempted, failed, m, lines


def main(argv):
    path = argv[1]
    trace = len(argv) > 3 and argv[2] == "--trace" and argv[3] == "1"
    with open(path) as f:
        record = json.load(f)
    correct, attempted, failed, m, lines = report(record, trace)
    for line in lines:
        print(line)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
