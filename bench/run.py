"""wvsim benchmark runner.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of mc_table, click_scan, beta_sweep, grid_oracle, or ``all``
to run the four in turn.  Each workload drives the program's real entry
point, ``wvsim.cli.main(argv)``, in a fresh single-threaded interpreter
(bench/worker.py) with BLAS/OpenMP threads pinned to 1 and every process
of the run pinned to one CPU.

--trace 0 measures the end-to-end metrics: the median set-up time of
SETUP_REPEATS fresh interpreters, then a closed loop of commands for S
seconds.  --trace 1 measures the per-layer metrics: untraced and traced
passes over a fixed amount of work, in alternating order, repeated for S
seconds; layer metrics are medians over the traced passes and
trace.overhead_ratio the median traced-over-untraced wall time.

Every output is checked (bench/checks.py) after all timing has ended.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The environment and the full
result go to .bench_out/ under the repository root.
"""
from __future__ import annotations

import argparse
import bisect
import glob
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib.metadata import version

import checks
import probe
import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_out")

SETUP_REPEATS = 5
CPUS = sorted(os.sched_getaffinity(0))
CPU = CPUS[-1]
WORKER_TIMEOUT_S = 150
PINNED = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "PYTHONHASHSEED",
)}

END_TO_END = {
    "work_per_s": "1/s",
    "cycle_p50_ms": "ms",
    "cycle_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "ok_share": "ratio",
}


class WorkerError(RuntimeError):
    pass


def worker(name: str, seed: int, mode: str, seconds: float) -> dict:
    env = dict(os.environ, **PINNED)
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), name, str(seed), mode, repr(seconds)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"{name} {mode} worker exceeded {WORKER_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise WorkerError(f"{name} {mode} worker exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def work_done(name: str, records: list) -> int:
    """Units of work completed: accepted clicks (mc_table), clicks
    (click_scan), sweep points (beta_sweep), preset checks (grid_oracle)."""
    if name == "mc_table":
        return sum(int(row["accepted"]) for _, rc, _, out, _ in records if rc == 0
                   for row in checks.parse(out)[1])
    if name == "beta_sweep":
        return sum(checks.data_rows(out) for _, rc, _, out, _ in records if rc == 0)
    return sum(1 for _, rc, _, _, _ in records if rc == 0)


def local_probe_ms(records: list, probes: list) -> list[float]:
    """For each command, the mean of the probe timings just before its
    start and just after its end (the host's speed swings within seconds)."""
    starts = [t for t, _ in probes]
    out = []
    for _, _, ns, _, start in records:
        after = bisect.bisect_left(starts, start + ns)
        near = [probes[i][1] for i in (after - 1, after) if 0 <= i < len(probes)]
        out.append(sum(near) / len(near))
    return out


def end_to_end(name: str, seed: int, seconds: float, ref: dict):
    """Times are normalised by the speed probe, timed between commands in
    a helper process (see probe.py); the raw figures go to the info line."""
    setups = [worker(name, seed, "setup", 0) for _ in range(SETUP_REPEATS - 1)]
    report = worker(name, seed, "timed", seconds)
    setups.append(report)
    records, probes = checks.load_records(report["records_path"])
    raw = [r[2] / 1e6 for r in records]
    scaled = [ms * probe.NOMINAL_MS / p for ms, p in zip(raw, local_probe_ms(records, probes))]
    size = len(next(workloads.cycles(name, seed)))
    raw_cycles = [sum(raw[i:i + size]) for i in range(0, len(raw), size)]
    cycles = [sum(scaled[i:i + size]) for i in range(0, len(scaled), size)]
    work = work_done(name, records)
    tally = checks.Tally()
    checks.check_run(tally, name, records, report["after"], ref)
    metrics = {
        "work_per_s": work / (sum(scaled) / 1e3),
        "cycle_p50_ms": statistics.median(cycles),
        "cycle_p90_ms": p90(cycles),
        "setup_s": statistics.median(
            s["setup_s"] * probe.NOMINAL_MS / s["setup_probe_ms"] for s in setups),
        "peak_rss_mb": report["peak_rss_mb"],
        "ok_share": 1 - tally.failed / tally.attempted,
    }
    info = {
        "commands": len(records),
        "cycles": len(cycles),
        "probes": len(probes),
        "probe_median_ms": statistics.median(ms for _, ms in probes),
        "raw_work_per_s": work / (sum(raw) / 1e3),
        "raw_cycle_p50_ms": statistics.median(raw_cycles),
        "raw_cycle_p90_ms": p90(raw_cycles),
        "raw_setup_s": statistics.median(s["setup_s"] for s in setups),
    }
    return tally, {k: (v, END_TO_END[k]) for k, v in metrics.items()}, info


def p90(values: list[float]) -> float:
    """90th percentile, linear between order statistics (numpy's default)."""
    return statistics.quantiles(values, n=10, method="inclusive")[-1] if len(values) > 1 else values[0]


def per_layer(name: str, seed: int, seconds: float, ref: dict):
    tally = checks.Tally()
    layers, ratios, absent = [], [], set()
    deadline = time.monotonic() + seconds
    while not ratios or time.monotonic() < deadline:
        order = ("fixed", "traced") if len(ratios) % 2 == 0 else ("traced", "fixed")
        reps = {mode: worker(name, seed, mode, 0) for mode in order}
        traced, plain = reps["traced"], reps["fixed"]
        ratios.append(traced["wall_s"] / plain["wall_s"])
        layers.append(traced["layers"])
        absent.update(traced["absent"], traced["unmeasured"])
        traced_records = checks.load_records(traced["records_path"])[0]
        plain_records = checks.load_records(plain["records_path"])[0]
        checks.check_run(tally, name, traced_records, traced["after"], ref)
        same = [a[3] == b[3] for a, b in zip(traced_records, plain_records)]
        tally.op("traced output equals untraced output",
                 errors=[] if all(same) and len(same) == len(plain_records)
                 else [f"{same.count(False)} outputs differ"])
    metrics = {k: (statistics.median(run[k] for run in layers), spans.unit(k)) for k in layers[0]}
    metrics["trace.overhead_ratio"] = (statistics.median(ratios), "ratio")
    info = {"pairs": len(ratios), "absent": sorted(absent)}
    return tally, metrics, info


def environment(name: str, seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "mpmath": version("mpmath"),
        "nproc": os.cpu_count(),
        "affinity": len(CPUS),
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "commit": _commit(),
        "workload": name,
        "seed": seed,
        "pinned": PINNED,
        "cpu": CPU,
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _caches() -> dict:
    caches = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        fields = []
        try:
            for f in ("level", "type", "size"):
                with open(os.path.join(index, f), encoding="utf-8") as fh:
                    fields.append(fh.read().strip())
        except OSError:
            continue
        caches[f"L{fields[0]} {fields[1]}"] = fields[2]
    return caches


def _commit() -> str:
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = top.stdout.split()
    if top.returncode == 0 and len(lines) == 2 and os.path.samefile(lines[0], ROOT):
        return lines[1]
    return "unknown (not a git checkout)"


def run(name: str, seed: int, seconds: float, trace: int, ref: dict) -> dict:
    measure = per_layer if trace else end_to_end
    tally, metrics, info = measure(name, seed, seconds, ref)
    result = {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    env = environment(name, seed)
    diagnostics = {k: {"count": len(v), "min": min(v), "max": max(v), "sum": sum(v)}
                   for k, v in tally.diagnostics.items()}
    print(f"# {name}: env {json.dumps(env)}")
    print(f"# {name}: {json.dumps(info)}")
    print(f"# {name}: {tally.attempted} operations, {tally.failed} failed "
          f"(failed_share {tally.failed / tally.attempted:.6g}; {tally.accuracy} off the "
          f"reference, {tally.errors} errors)")
    for problem in tally.problems[:10]:
        print(f"# {name}: failed {problem}")
    for key, d in diagnostics.items():
        print(f"# {name}: diagnostic {key}: {json.dumps(d)}")
    for key, (value, unit) in metrics.items():
        print(f"{name} {key} {value!r} {unit}")
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"result-{name}-seed{seed}-trace{trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(dict(result, environment=env, info=info, diagnostics=diagnostics,
                       problems=tally.problems), fh, indent=1)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=workloads.NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "wvsim", "cli.py")):
        print(f"error: no program to measure: {ROOT}/src/wvsim is missing", file=sys.stderr)
        return 2
    # The worker and its probe process share one CPU, so the probe times
    # the core the commands run on, warm, and never runs beside them.
    os.sched_setaffinity(0, {CPU})
    ref = checks.load_reference()
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    try:
        results = {name: run(name, args.seed, args.seconds, args.trace, ref) for name in names}
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
