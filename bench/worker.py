"""One workload in a fresh interpreter; prints a JSON report on stdout.

    python3 bench/worker.py WORKLOAD SEED MODE SECONDS

MODE is one of
  setup   import the program and make the declared warm-up call, then stop;
  timed   set up, then run command cycles until SECONDS have passed;
  fixed   set up, then run the fixed traced amount of work untraced;
  traced  as fixed, with spans recorded from the warm-up on.

Commands go in-process through ``wvsim.cli.main(argv)`` with the program's
standard output captured, one at a time (closed loop, one caller).
"""
import time

_T0 = time.perf_counter_ns()  # set-up starts before any import of the program

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402
import wvsim.cli  # noqa: E402

PROBE_EVERY_NS = 250_000_000
SETUP_PROBES = 5
OUT_DIR = os.path.join(ROOT, ".bench_out")


def call(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = wvsim.cli.main(argv)
    return rc, out.getvalue()


def run_cycles(cycles, sink, recorder=None, deadline_ns=None, count=None, helper=None):
    """Run command cycles, writing one JSON line per command to `sink`:
    ["cmd", argv, exit code, ns, stdout, start ns].  Nothing is kept in
    memory, so the process's size does not grow with the run.  With
    `helper`, the speed probe runs between commands every PROBE_EVERY_NS,
    outside the command timings, written as ["probe", start ns, ms]."""
    last_probe = 0
    for number, cycle in enumerate(cycles):
        if count is not None and number >= count:
            break
        if deadline_ns is not None and time.perf_counter_ns() >= deadline_ns:
            break
        for argv in cycle:
            if recorder is not None:
                recorder.current_command += 1
            t = time.perf_counter_ns()
            rc, out = call(argv)
            ns = time.perf_counter_ns() - t
            sink.write(json.dumps(["cmd", argv, rc, ns, out, t]) + "\n")
            if helper is not None and time.perf_counter_ns() - last_probe >= PROBE_EVERY_NS:
                last_probe = time.perf_counter_ns()
                sink.write(json.dumps(["probe", last_probe, helper.ms()]) + "\n")


def main():
    name, seed, mode, seconds = sys.argv[1], int(sys.argv[2]), sys.argv[3], float(sys.argv[4])
    recorder = None
    if mode == "traced":
        import spans
        recorder = spans.Recorder()
        absent = recorder.install()
    report = {}
    t_warm = time.perf_counter_ns()
    warm_rc, warm_out = call(workloads.warmup(name, seed))
    if warm_rc != 0:
        raise SystemExit(f"warm-up call failed with exit code {warm_rc}")
    t_ready = time.perf_counter_ns()
    report["setup_s"] = (t_ready - _T0) / 1e9
    import probe
    helper = probe.Helper() if mode in ("setup", "timed") else contextlib.nullcontext()
    with helper:
        if mode == "setup":
            report["setup_probe_ms"] = helper.median_ms(SETUP_PROBES)
            print(json.dumps(report))
            return
        os.makedirs(OUT_DIR, exist_ok=True)
        report["records_path"] = os.path.join(OUT_DIR, f"records-{name}-{mode}.jsonl")
        cycles = workloads.cycles(name, seed)
        with open(report["records_path"], "w", encoding="utf-8") as sink:
            if mode == "timed":
                report["setup_probe_ms"] = helper.median_ms(SETUP_PROBES)
                run_cycles(cycles, sink, deadline_ns=time.perf_counter_ns() + int(seconds * 1e9),
                           helper=helper)
            else:
                run_cycles(cycles, sink, recorder, count=workloads.TRACE_CYCLES[name])
            t_end = time.perf_counter_ns()
    report["wall_s"] = (t_end - t_warm) / 1e9
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if recorder is not None:
        import checks
        rows = checks.data_rows(warm_out) + sum(
            checks.data_rows(r[3]) for r in checks.load_records(report["records_path"])[0])
        report["layers"] = recorder.metrics(t_end - t_warm, rows)
        report["spans"] = len(recorder.start)
        report["absent"] = absent
        report["unmeasured"] = sorted(recorder.unmeasured)
        recorder.save(os.path.join(OUT_DIR, f"spans-{name}.npz"))
    # Untimed and untraced: run after the measured work and its spans.
    report["after"] = [[argv, *call(argv)] for argv in workloads.after_loop(name)]
    print(json.dumps(report))


if __name__ == "__main__":
    main()
