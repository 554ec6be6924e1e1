#!/usr/bin/env python3
"""The end-to-end OSCAR benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds the library, oscar-serve,
oscar-worker and the perfbench binary from source into $CARGO_TARGET_DIR
(default .bench_build), runs one workload, and prints a report: label
and sample-count lines, then, as the last line, one JSON object with
`correct`, `attempted`, `failed` and `metrics`. With --trace 0 the
metrics are the end-to-end ones, with --trace 1 the per-layer ones
(DESIGN.md says which layer metric should move which end-to-end metric
on which workload). The full report, spans included, is written to
<build dir>/perfbench-report/. The landscape stores and sockets a run
writes go to <build dir>/perfbench-scratch/, which is emptied before
and after each run, outside anything the run times.

Exits non-zero without a result when the build or the run fails.
"""

import argparse
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.dont_write_bytecode = True  # write only under the build directory

import stats  # noqa: E402

WORKLOADS = ("solve-heavy", "execute-heavy", "fleet", "serve-mix")

# name -> (unit, better). Every workload reports every metric.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "cold_s": ("s", "lower"),
    "warm_s": ("s", "lower"),
    "throughput_per_s": ("1/s", "higher"),
    "grid_search_s": ("s", "lower"),
    "trial_s": ("s", "lower"),
}

PER_LAYER = {
    "cs.nrmse": ("ratio", "lower"),
    "cs.solve_s": ("s", "lower"),
    "cs.iterations": ("count", "lower"),
    "cs.iter_us": ("us", "lower"),
    "cs.dct2d_us": ("us", "lower"),
    "cs.share": ("ratio", "lower"),
    "quantum.eval_us": ("us", "lower"),
    "backend.execute_s": ("s", "lower"),
    "backend.points_per_s": ("1/s", "higher"),
    "backend.thread_scaling": ("ratio", "higher"),
    "backend.prefix_hit_ratio": ("ratio", "higher"),
    "backend.grid_points_per_s": ("1/s", "higher"),
    "dist.execute_s": ("s", "lower"),
    "dist.steals_per_point": ("ratio", "lower"),
    "dist.requeued": ("count", "lower"),
    "dist.remote_share": ("ratio", "higher"),
    "dist.wire_bytes_per_point": ("B", "lower"),
    "dist.wire_ratio": ("ratio", "lower"),
    "store.put_us": ("us", "lower"),
    "store.load_us": ("us", "lower"),
    "store.entry_bytes": ("B", "lower"),
    "store.hit_ratio": ("ratio", "higher"),
    "serve.rtt_overhead_us": ("us", "lower"),
    "serve.evaluations_per_cold": ("ratio", "lower"),
    "landscape.sample_s": ("s", "lower"),
    "interp.build_us": ("us", "lower"),
    "interp.query_us": ("us", "lower"),
    "core.gap_share": ("ratio", "lower"),
    "core.speedup_vs_grid": ("ratio", "higher"),
    "trace.overhead": ("ratio", "lower"),
}

RUN_TIMEOUT_S = 160  # leaves room to empty the scratch directory


def log(msg):
    print(f"perfbench: {msg}", flush=True)


def build(build_dir):
    """Configure once, then build incrementally; output to stderr."""
    jobs = str(len(os.sched_getaffinity(0)))
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target",
                  "perfbench", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def measure(build_dir, out_dir, args):
    """Run the perfbench binary in its own process group; return its
    JSON line, or None when it fails or overruns."""
    cmd = [str(build_dir / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", str(out_dir)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print("perfbench: run overran its time limit", file=sys.stderr)
        return None
    finally:
        # Nothing the run started may outlive it.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    lines = out.strip().splitlines()
    try:
        raw = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        print(f"perfbench: binary exited with {proc.returncode} and no "
              "result", file=sys.stderr)
        return None
    if proc.returncode != 0:
        raw["errors"].append(f"perfbench exited with {proc.returncode}")
    return raw


def end_to_end_metrics(raw):
    samples, counts = raw["samples"], raw["counts"]
    values = {name: stats.median(samples[name])
              for name in ("setup_s", "cold_s", "warm_s", "grid_search_s",
                           "trial_s") if samples.get(name)}
    if "throughput_per_s" in counts:
        values["throughput_per_s"] = counts["throughput_per_s"]
    return values


def per_layer_metrics(raw):
    samples, counts, spans = raw["samples"], raw["counts"], raw["spans"]

    def span_median(name, scale=1.0):
        d = stats.durations(spans, name)
        return stats.median(d) * scale if d else None

    def sample_median(name):
        v = samples.get(name)
        return stats.median(v) if v else None

    m = {"cs.nrmse": counts.get("cs.nrmse")}
    recon = span_median("core.reconstruct")
    untraced = sample_median("untraced_reconstruct_s")
    m["cs.solve_s"] = span_median("cs.solve")
    m["cs.iterations"] = counts.get("cs.iterations")
    if m["cs.solve_s"] is not None and m["cs.iterations"]:
        m["cs.iter_us"] = m["cs.solve_s"] / m["cs.iterations"] * 1e6
    m["cs.dct2d_us"] = span_median("cs.dct2d", 1e6)
    if m["cs.solve_s"] is not None and recon:
        m["cs.share"] = m["cs.solve_s"] / recon
    m["quantum.eval_us"] = span_median("quantum.eval", 1e6)
    m["backend.execute_s"] = span_median("backend.execute")
    if m["backend.execute_s"] and "backend.points" in counts:
        m["backend.points_per_s"] = (counts["backend.points"]
                                     / m["backend.execute_s"])
    one, many = span_median("backend.batch_1t"), span_median("backend.batch_nt")
    if one and many:
        m["backend.thread_scaling"] = one / many
    m["backend.prefix_hit_ratio"] = counts.get("backend.prefix_hit_ratio")
    grid = span_median("backend.grid_search")
    if grid and "grid.points" in counts:
        m["backend.grid_points_per_s"] = counts["grid.points"] / grid
    m["dist.execute_s"] = span_median("dist.execute")
    m["dist.steals_per_point"] = sample_median("dist.steals_per_point")
    if samples.get("dist.requeued"):
        m["dist.requeued"] = sum(samples["dist.requeued"])
    m["dist.remote_share"] = counts.get("dist.remote_share")
    m["dist.wire_bytes_per_point"] = sample_median("dist.wire_bytes_per_point")
    m["dist.wire_ratio"] = sample_median("dist.wire_ratio")
    m["store.put_us"] = span_median("store.put", 1e6)
    m["store.load_us"] = span_median("store.load", 1e6)
    m["store.entry_bytes"] = counts.get("store.entry_bytes")
    m["store.hit_ratio"] = counts.get("store.hit_ratio")
    warm = span_median("serve.warm", 1e6)
    if warm is not None and m["store.load_us"] is not None:
        m["serve.rtt_overhead_us"] = warm - m["store.load_us"]
    # Only serve-mix sends cold requests.
    m["serve.evaluations_per_cold"] = counts.get("serve.evaluations_per_cold",
                                                 0.0)
    m["landscape.sample_s"] = span_median("landscape.sample")
    m["interp.build_us"] = span_median("interp.build", 1e6)
    trial = span_median("optimize.trial")
    if trial is not None and samples.get("interp.queries"):
        m["interp.query_us"] = trial / stats.median(samples["interp.queries"]) * 1e6
    m["core.gap_share"], _ = stats.gap_report(spans)
    if grid and untraced:
        m["core.speedup_vs_grid"] = grid / untraced
    if recon and untraced:
        m["trace.overhead"] = recon / untraced
    return {k: v for k, v in m.items() if v is not None}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or not 0 < args.seconds <= 120:
        parser.error("--seed must be >= 0 and --seconds in (0, 120]")

    build_dir = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build_dir = build_dir.resolve()
    t0 = time.monotonic()
    if not build(build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    log(f"build {time.monotonic() - t0:.1f} s")

    report_dir = build_dir / "perfbench-report"
    out_dir = build_dir / "perfbench-scratch"
    report_dir.mkdir(parents=True, exist_ok=True)
    shutil.rmtree(out_dir, ignore_errors=True)
    try:
        raw = measure(build_dir, out_dir, args)
    finally:
        t0 = time.monotonic()
        shutil.rmtree(out_dir, ignore_errors=True)
        log(f"scratch cleanup {time.monotonic() - t0:.1f} s")
    if raw is None:
        return 1

    labels = raw["labels"]
    log(" ".join(f"{k}={v}" for k, v in sorted(labels.items())))
    for name, values in sorted(raw["samples"].items()):
        t = stats.tail(values)
        tail_text = (f"tail p{t[1]:.1f}={t[0]:.6g} ({t[2]} beyond)" if t
                     else f"tail n/a (<{stats.TAIL_BEYOND + 1} samples)")
        log(f"{name}: n={len(values)} median={stats.median(values):.6g} "
            f"min={min(values):.6g} max={max(values):.6g} {tail_text}")

    log(" ".join(f"{k}={v:.6g}" if isinstance(v, (int, float)) else f"{k}={v}"
                 for k, v in sorted(raw["counts"].items())))
    table = PER_LAYER if args.trace else END_TO_END
    values = (per_layer_metrics(raw) if args.trace
              else end_to_end_metrics(raw))
    attempted, failed = raw["attempted"], raw["failed"]
    problems = list(raw["errors"])
    missing = [n for n in table if not isinstance(values.get(n), (int, float))
               or not math.isfinite(values[n])]
    if missing:
        problems.append("missing metrics: " + ", ".join(missing))
    if not args.trace:
        zero = [n for n in table if n not in missing and values[n] <= 0]
        if zero:
            problems.append("non-positive metrics: " + ", ".join(zero))
    if args.trace:
        gap, flagged = stats.gap_report(raw["spans"])
        log(f"core.gap_share={gap} "
            f"{'FLAGGED: stage spans cover < 95% of wall time' if flagged else 'ok'}")
        steals = raw["samples"].get("dist.steals_per_point")
        if steals and len(steals) > 1:
            q1, q2, q3 = stats.quartiles(steals)
            log(f"dist.steals_per_point spread: q1={q1:.4g} median={q2:.4g} "
                f"q3={q3:.4g} max={max(steals):.4g} (not gated: timing-"
                "dependent)")
    log(f"error_share={stats.error_share(attempted, failed):.6g} "
        f"({failed} of {attempted} operations failed)")
    for p in problems:
        log(f"problem: {p}")

    report = {"labels": labels, "attempted": attempted, "failed": failed,
              "problems": problems, "samples": raw["samples"],
              "counts": raw["counts"], "metrics": values,
              "spans": raw["spans"]}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (report_dir / name).write_text(json.dumps(report))

    result = {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": values[n], "unit": table[n][0]}
                    for n in table if n not in missing},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
