#!/usr/bin/env python3
"""End-to-end benchmark of the Prosperity simulator.

Builds the `e2e_bench` driver from the checkout it sits in, runs one
workload (or all of them), checks every output, and prints each metric
by name and unit. The last line of standard output is one JSON object:
`{"correct", "attempted", "failed", "metrics"}`; with `--trace 0` the
metrics are the end-to-end ones, with `--trace 1` the per-layer ones
from a traced run. See README.md for the workloads and metrics.

    python3 e2ebench/run.py --workload fig8 --seed 1 --seconds 10 --trace 0
    python3 e2ebench/run.py --workload all --seed 1        # every workload
    python3 e2ebench/run.py --compare A.json B.json        # two results

Exit status: 0 success; 1 build or driver failure; 2 bad invocation or
not inside a checkout; 3 invalid serve run (the generator fell
behind); 4 traced run failed validation or dropped spans.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from spans import Attribution, load_spans  # noqa: E402

BUILD_DIR = ROOT / ".bench_build" / "e2ebench"
RUNS_DIR = ROOT / ".bench_build" / "runs"
BINARY = BUILD_DIR / "e2e_bench"
SPEC_DIR = HERE / "specs"
CHECK_TRACE = ROOT / "tools" / "ci" / "check_trace.py"

WORKLOADS = ("fig8", "fig9", "serve_mixed", "adaptive")
# Set-up is a few ms, mostly process start, and drifts with the host:
# sample it this many times before the measured run and as many after,
# and report the median of all.
SETUP_REPEATS = 40
DRIVER_TIMEOUT_S = 170
# serve_mixed's measured schedule runs as this many driver processes of
# equal length, its requests pooled. Latency shifts by about 10% from
# one process to the next (thread placement, heap layout); pooling four
# roughly halves the spread of p50_ms and tail_ms between runs.
SERVE_SEGMENTS = 4
# A serve request slower than this misses the service-level objective.
SLO_MS = 100.0
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

# name -> unit. Every workload reports every metric.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MiB",
    "p50_ms": "ms",
    "tail_ms": "ms",
}

# Labels of every design point the workloads run; one arch.busy_s
# metric each, 0 on workloads without that design.
LABELS = ("eyeriss", "ptb", "sato", "mint", "stellar", "a100", "prosperity",
          "prosperity-bit", "prosperity-traversal")
SERVE_ROUTES = {"runs": "POST /v1/runs", "jobs": "GET /v1/jobs/:id",
                "reports": "GET /v1/reports/:id"}

PER_LAYER = {
    "arch.spiking_gemm.self_s": "s",
    "arch.spiking_gemm.calls": "count",
    "arch.other_stages.self_s": "s",
    **{f"arch.busy_s.{label}": "s" for label in LABELS},
    "gen.spikegen.self_s": "s",
    "gen.spikegen.calls": "count",
    "analysis.engine.busy_s": "s",
    "analysis.engine.queue_wait_s": "s",
    "analysis.engine.utilization": "frac",
    "analysis.runner.self_s": "s",
    "analysis.campaign.self_s": "s",
    "analysis.engine.jobs_simulated": "count",
    "analysis.engine.memo_hits": "count",
    "analysis.engine.inflight_dedups": "count",
    "stats.seeds_drawn": "count",
    "stats.cells_converged": "count",
    "stats.idle_s": "s",
    **{f"serve.http.self_s.{route}": "s" for route in SERVE_ROUTES},
    "serve.http.requests": "count",
    "serve.http.rejected": "count",
    "serve.store.fetch_s": "s",
    "serve.store.publish_s": "s",
    "serve.store.hit_ratio": "frac",
    "serve.client.gen_late_ms": "ms",
    "serve.client.backlog": "count",
    "serve.warm_p50_ms": "ms",
    "serve.warm_tail_ms": "ms",
    "serve.cold_p50_ms": "ms",
    "serve.cold_tail_ms": "ms",
    "serve.slo_frac": "frac",
    "obs.trace_overhead_frac": "frac",
    "obs.spans_recorded": "count",
    "obs.spans_dropped": "count",
}


class BenchError(Exception):
    """A failure that ends the run without a result line."""

    def __init__(self, message: str, code: int = 1):
        super().__init__(message)
        self.code = code


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


# --- statistics ---------------------------------------------------------

def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def tail(values) -> tuple[float, float, int]:
    """(value, percentile, samples): the highest percentile of the
    ladder that still has at least ten samples beyond it."""
    n = len(values)
    for q in TAIL_LADDER:
        if n * (1.0 - q / 100.0) >= 10.0:
            return percentile(values, q), q, n
    return max(values), 100.0, n


# --- build and driver ---------------------------------------------------

def check_checkout() -> None:
    needed = [ROOT / "CMakeLists.txt", ROOT / "src", ROOT / "campaigns",
              ROOT / "tests" / "golden", CHECK_TRACE]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.exists()]
    if missing:
        raise BenchError("not inside a checkout of the simulator; missing: "
                         + ", ".join(missing), code=2)


def build() -> None:
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target",
                  "e2e_bench", "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            raise BenchError("build failed: " + " ".join(step))


def driver(workload: str, seed: int, seconds: float, mode: str,
           out: Path) -> subprocess.CompletedProcess:
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--mode", mode, "--out", str(out),
           "--spec-dir", str(SPEC_DIR)]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired as err:
        raise BenchError(f"{workload}: driver timed out") from err
    if done.returncode != 0:
        raise BenchError(f"{workload}: driver exited {done.returncode}")
    return done


def measure_setup(workload: str, seed: int, out: Path) -> list[float]:
    """Seconds from spawning the driver until it is ready to submit its
    first job (or its daemon answered), once per fresh process."""
    samples = []
    for _ in range(SETUP_REPEATS):
        start = time.monotonic_ns()
        done = driver(workload, seed, 0.0, "setup", out)
        ready = int(done.stdout.split()[-1])
        samples.append((ready - start) * 1e-9)
    return samples


# --- host fingerprint ---------------------------------------------------

def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def fingerprint(raw: dict) -> dict:
    fp = {"cpu_model": cpu_model(),
          "nproc": len(os.sched_getaffinity(0)),
          "workload": raw["workload"], "seed": int(raw["seed"])}
    fp.update(raw["fingerprint"])
    return fp


# --- metrics ------------------------------------------------------------

def campaign_end_to_end(raw: dict) -> tuple[dict, dict]:
    passes = [p for p in raw["passes"] if not p["traced"]]
    tails = [tail(p["result_ms"]) for p in passes]
    metrics = {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "cpu_s": statistics.median(p["cpu_s"] for p in passes),
        "p50_ms": statistics.median(statistics.median(p["result_ms"])
                                    for p in passes),
        "tail_ms": statistics.median(t[0] for t in tails),
    }
    extra = {"passes": len(passes), "tail_percentile": tails[0][1],
             "tail_samples": tails[0][2]}
    return metrics, extra


def serve_breakdown(run: dict) -> dict:
    """Client-side figures of one serve pass, split warm / cold."""
    ok = [o == "ok" for o in run["outcome"]]
    lat = run["latency_ms"]
    warm = [x for x, good, w in zip(lat, ok, run["warm"]) if good and w]
    cold = [x for x, good, w in zip(lat, ok, run["warm"]) if good and not w]
    every = [x for x, good in zip(lat, ok) if good]
    within = sum(1 for x, good in zip(lat, ok) if good and x <= SLO_MS)
    out = {"requests": run["requests"], "ok": len(every),
           "warm": len(warm), "cold": len(cold),
           "slo_ms": SLO_MS, "slo_frac": within / run["requests"],
           "gen_late_max_ms": max(run["late_ms"]),
           "gen_late_p99_ms": percentile(run["late_ms"], 99.0),
           "late_limit_ms": run["late_limit_ms"],
           "backlog_at_end": run["backlog_at_end"]}
    for name, values in (("all", every), ("warm", warm), ("cold", cold)):
        if values:
            value, q, n = tail(values)
            out[f"{name}_p50_ms"] = statistics.median(values)
            out[f"{name}_tail_ms"] = value
            out[f"{name}_tail_percentile"] = q
            out[f"{name}_samples"] = n
    return out


def serve_end_to_end(raw: dict) -> tuple[dict, dict]:
    run = raw["passes"][0]
    extra = serve_breakdown(run)
    extra["segments"] = raw.get("segments", 1)
    # p50 over warm requests only: over all of them it would sit at
    # the warm mode's 67th percentile, where host drift moves it more.
    metrics = {"wall_s": run["wall_s"], "cpu_s": run["cpu_s"],
               "p50_ms": extra["warm_p50_ms"], "tail_ms": extra["all_tail_ms"]}
    return metrics, extra


def pool_serve(raws: list[dict], seed: int) -> dict:
    """One serve document from the segments' documents: requests
    pooled, times summed, peak memory and backlog the largest."""
    runs = [raw["passes"][0] for raw in raws]
    run = dict(runs[0])
    for key in ("latency_ms", "late_ms", "warm", "outcome"):
        run[key] = [x for r in runs for x in r[key]]
    for key in ("requests", "wrong_bodies", "wall_s", "cpu_s"):
        run[key] = sum(r[key] for r in runs)
    for key in ("backlog_at_end", "peak_rss_mb"):
        run[key] = max(r[key] for r in runs)
    pooled = dict(raws[0])
    pooled.update(seed=seed, segments=len(raws), passes=[run],
                  peak_rss_mb=run["peak_rss_mb"])
    return pooled


def check_serve_valid(run: dict) -> None:
    late = max(run["late_ms"])
    if late > run["late_limit_ms"]:
        raise BenchError(
            f"serve_mixed: INVALID run - the generator fell {late:.1f} ms "
            f"behind schedule (limit {run['late_limit_ms']} ms, backlog "
            f"{run['backlog_at_end']} at the end of the schedule)", code=3)


def outcome(raw: dict) -> tuple[bool, int, int, list]:
    """(correct, attempted, failed, problems) of a driver document."""
    problems = []
    if raw["workload"] == "serve_mixed":
        attempted = sum(p["requests"] for p in raw["passes"])
        failed = sum(sum(1 for o in p["outcome"] if o != "ok")
                     for p in raw["passes"])
        wrong = sum(p["wrong_bodies"] for p in raw["passes"])
        if wrong:
            problems.append(f"{wrong} report bodies differ from the offline "
                            "engine result")
        return not problems, attempted, failed, problems

    attempted, failed = raw["attempted"], raw["failed"]
    if raw["check_failures"]:
        problems.append(f"{raw['check_failures']} outputs differ from "
                        + ("the first pass" if raw["workload"] == "adaptive"
                           else "the golden report"))
    if raw["workload"] == "adaptive":
        pinned = json.loads((SPEC_DIR / "adaptive.expected.json").read_text())
        report = (Path(raw["out_dir"]) / "adaptive.report.json").read_bytes()
        digest = hashlib.sha256(report).hexdigest()
        got = {"report_sha256": digest, **raw["adaptive"]}
        for key, want in pinned.items():
            if got.get(key) != want:
                problems.append(f"adaptive {key} = {got.get(key)}, "
                                f"pinned {want}")
        if problems and not raw["check_failures"]:
            failed = attempted
    return not problems, attempted, failed, problems


def per_layer(raw: dict) -> dict:
    trace = raw["trace"] if "trace" in raw else raw["passes"][-1]["trace"]
    attr = Attribution(load_spans(trace["file"]))
    labels = raw.get("labels") or raw["passes"][-1]["labels"]
    busy = attr.busy_by_label(labels)
    serve = raw["workload"] == "serve_mixed"

    if serve:
        untraced, traced = raw["passes"][0], raw["passes"][-1]
        traced_wall = traced["wall_s"]
        # Both halves run the same schedule, so their wall times match
        # by construction; the cost of tracing shows in CPU time.
        trace_overhead = traced["cpu_s"] / untraced["cpu_s"] - 1.0
        engine_doc = traced["stats"]["engine"]
        engine = {"jobs_simulated": engine_doc["misses"],
                  "memo_hits": engine_doc["hits"],
                  "inflight_dedups": engine_doc["in_flight_dedups"]}
    else:
        traced_pass = [p for p in raw["passes"] if p["traced"]][-1]
        traced_wall = traced_pass["wall_s"]
        untraced_walls = [p["wall_s"] for p in raw["passes"]
                          if not p["traced"]]
        traced_walls = [p["wall_s"] for p in raw["passes"] if p["traced"]]
        trace_overhead = (statistics.median(traced_walls)
                          / statistics.median(untraced_walls) - 1.0)
        engine = traced_pass["engine"]

    busy_s = attr.total_duration("engine", {"simulate"})
    threads = raw["threads"]
    m = {
        "arch.spiking_gemm.self_s": attr.total_self("stage", {"spiking_gemm"}),
        "arch.spiking_gemm.calls": attr.count("stage", {"spiking_gemm"}),
        "arch.other_stages.self_s": attr.total_self(
            "stage", {"dense_gemm", "lif", "sfu"}),
        **{f"arch.busy_s.{label}": busy.get(label, 0.0) for label in LABELS},
        "gen.spikegen.self_s": attr.total_self("spikegen"),
        "gen.spikegen.calls": attr.count("spikegen"),
        "analysis.engine.busy_s": busy_s,
        "analysis.engine.queue_wait_s": attr.total_duration(
            "engine", {"queue_wait"}),
        "analysis.engine.utilization": busy_s / (threads * traced_wall),
        "analysis.runner.self_s": attr.total_self("engine", {"simulate"}),
        "analysis.campaign.self_s": attr.total_self("campaign")
        + attr.total_self("bench", name_prefix="campaign/"),
        "analysis.engine.jobs_simulated": engine["jobs_simulated"],
        "analysis.engine.memo_hits": engine["memo_hits"],
        "analysis.engine.inflight_dedups": engine["inflight_dedups"],
        "stats.seeds_drawn": raw.get("adaptive", {}).get("seeds_drawn", 0),
        "stats.cells_converged":
            raw.get("adaptive", {}).get("cells_converged", 0),
        "stats.idle_s": threads * traced_wall - busy_s,
        **{f"serve.http.self_s.{route}": attr.total_self("http", {name})
           for route, name in SERVE_ROUTES.items()},
        "serve.http.requests": attr.count("http"),
        "serve.store.fetch_s": attr.total_duration("store", {"store.fetch"}),
        "serve.store.publish_s": attr.total_duration(
            "store", {"store.publish"}),
        "obs.trace_overhead_frac": trace_overhead,
        "obs.spans_recorded": trace["spans_recorded"],
        "obs.spans_dropped": trace["spans_dropped"],
    }
    client = serve_breakdown(raw["passes"][0]) if serve else {}
    store = traced["stats"]["store"] if serve else {}
    fetches = store.get("hits", 0) + store.get("misses", 0)
    m.update({
        "serve.http.rejected":
            traced["stats"]["service"]["rejected_submits"] if serve else 0,
        "serve.store.hit_ratio": store["hits"] / fetches if fetches else 0.0,
        "serve.client.gen_late_ms": client.get("gen_late_max_ms", 0.0),
        "serve.client.backlog": client.get("backlog_at_end", 0),
        "serve.warm_p50_ms": client.get("warm_p50_ms", 0.0),
        "serve.warm_tail_ms": client.get("warm_tail_ms", 0.0),
        "serve.cold_p50_ms": client.get("cold_p50_ms", 0.0),
        "serve.cold_tail_ms": client.get("cold_tail_ms", 0.0),
        "serve.slo_frac": client.get("slo_frac", 0.0),
    })
    return m


def validate_trace(raw: dict) -> None:
    trace = raw["trace"] if "trace" in raw else raw["passes"][-1]["trace"]
    done = subprocess.run([sys.executable, str(CHECK_TRACE), trace["file"]],
                          stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        raise BenchError("exported trace failed tools/ci/check_trace.py",
                         code=4)
    if trace["spans_dropped"] > 0:
        raise BenchError(f"traced run dropped {trace['spans_dropped']} spans "
                         f"(ring capacity {trace['capacity']})", code=4)


# --- one workload -------------------------------------------------------

def run_workload(workload: str, seed: int, seconds: float,
                 traced: bool) -> dict:
    out = RUNS_DIR / f"{workload}-seed{seed}-trace{int(traced)}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    serve = workload == "serve_mixed"
    setup = [] if traced else measure_setup(workload, seed, out)
    if serve and not traced:
        raws = []
        for k in range(SERVE_SEGMENTS):
            segment = out / f"segment{k}"
            segment.mkdir()
            driver(workload, seed * SERVE_SEGMENTS + k,
                   seconds / SERVE_SEGMENTS, "run", segment)
            raws.append(json.loads((segment / "result.json").read_text()))
            shutil.rmtree(segment / "store", ignore_errors=True)
        (out / "result.json").write_text(
            json.dumps(pool_serve(raws, seed)) + "\n")
    else:
        driver(workload, seed, seconds, "trace" if traced else "run", out)
    if not traced:
        setup += measure_setup(workload, seed, out)
    raw = json.loads((out / "result.json").read_text())
    raw["out_dir"] = str(out)
    shutil.rmtree(out / "store", ignore_errors=True)
    shutil.rmtree(out / "setup_store", ignore_errors=True)

    if serve:
        check_serve_valid(raw["passes"][0])
    correct, attempted, failed, problems = outcome(raw)

    if traced:
        validate_trace(raw)
        values = per_layer(raw)
        units = PER_LAYER
        extra = {}
    else:
        values, extra = (serve_end_to_end if serve
                         else campaign_end_to_end)(raw)
        values["setup_s"] = statistics.median(setup)
        values["peak_rss_mb"] = raw["peak_rss_mb"]
        extra["setup_samples_s"] = setup
        units = END_TO_END
    extra["failed_frac"] = failed / attempted if attempted else 0.0

    return {"fingerprint": fingerprint(raw), "correct": correct,
            "attempted": attempted, "failed": failed, "problems": problems,
            "metrics": {name: {"value": values[name], "unit": unit}
                        for name, unit in units.items()},
            "details": extra, "raw": str(out / "result.json")}


def print_report(workload: str, result: dict) -> None:
    print(f"== {workload}  ({'correct' if result['correct'] else 'WRONG'}, "
          f"{result['failed']}/{result['attempted']} failed)")
    for problem in result["problems"]:
        print(f"   ! {problem}")
    for name, metric in result["metrics"].items():
        print(f"   {name:34s} {metric['value']:14.6g} {metric['unit']}")
    for name, value in result["details"].items():
        if isinstance(value, float):
            print(f"   {name:34s} {value:14.6g}")
        elif not isinstance(value, list):
            print(f"   {name:34s} {value!s:>14}")
    print("   fingerprint " + json.dumps(result["fingerprint"]))


# --- comparison ---------------------------------------------------------

def compare(path_a: str, path_b: str) -> int:
    a = json.loads(Path(path_a).read_text())
    b = json.loads(Path(path_b).read_text())
    diff = sorted(k for k in set(a["fingerprint"]) | set(b["fingerprint"])
                  if a["fingerprint"].get(k) != b["fingerprint"].get(k))
    if diff:
        log("refusing to compare runs whose fingerprints differ: "
            + ", ".join(f"{k} ({a['fingerprint'].get(k)!r} vs "
                        f"{b['fingerprint'].get(k)!r})" for k in diff))
        return 2
    print(f"{'metric':34s} {'A':>14} {'B':>14} {'B/A-1':>9}")
    for name, ma in a["metrics"].items():
        mb = b["metrics"].get(name)
        if mb is None:
            continue
        change = (mb["value"] / ma["value"] - 1.0) if ma["value"] else 0.0
        print(f"{name:34s} {ma['value']:14.6g} {mb['value']:14.6g} "
              f"{change:+9.2%}")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, metavar="RESULT")
    args = parser.parse_args()
    if args.compare:
        return compare(*args.compare)
    if not args.workload:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    try:
        check_checkout()
        build()
        workloads = WORKLOADS if args.workload == "all" else (args.workload,)
        results = {}
        for workload in workloads:
            result = run_workload(workload, args.seed, args.seconds,
                                  bool(args.trace))
            path = RUNS_DIR / (f"{workload}-seed{args.seed}-"
                               f"trace{args.trace}.result.json")
            path.write_text(json.dumps(result, indent=1) + "\n")
            print_report(workload, result)
            print(f"   result written to {path.relative_to(ROOT)}")
            results[workload] = result
    except BenchError as err:
        log(f"run.py: {err}")
        return err.code

    def line(result: dict) -> dict:
        return {key: result[key]
                for key in ("correct", "attempted", "failed", "metrics")}

    if len(results) == 1:
        print(json.dumps(line(next(iter(results.values())))))
    else:
        print(json.dumps({name: line(r) for name, r in results.items()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
