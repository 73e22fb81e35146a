"""Span tracing of the wvsim layers, installed from outside the package.

Every public function of a layer module is wrapped, and the wrapper is
bound in place of the original in every wvsim module that holds it (for
example ``wvsim.cli.wv_sum`` and ``wvsim.montecarlo.evolve_sequential``), so
calls between layers are recorded with the span that made them.  Spans
are kept in memory in flat arrays and written out when the run ends.
"""
from __future__ import annotations

import array
import functools
import inspect
import sys
import time

LAYERS = ("cli", "analytic", "grid", "montecarlo")

# Functions whose per-layer metrics need the size of the work they did,
# as a function of their bound arguments and result.  A later version of
# the program may rename or re-sign these; the metric then reads 0 and the
# name is listed as absent.
_WORK = {
    "grid.evolve_sequential": lambda a, r: (a["spec"].node_count * a["params"].n,),
    "grid.evolve_joint": lambda a, r: ((2 ** a["params"].n) * a["spec"].node_count,),
    "montecarlo.run_trials": lambda a, r: (r.trials, r.accepted),
    "montecarlo.first_click": lambda a, r: (a["budget"], 0) if r is None else (r[0] + 1, 1),
}

_MEASURED = set(_WORK) | {
    "grid.moments", "grid.cdf", "montecarlo.trial_rng", "montecarlo.anomaly_report",
}

# Complex entries are 16 bytes; evolve_joint holds the product state and
# its coupled copy at once.
_JOINT_BYTES_PER_ENTRY = 2 * 16


def unit(metric: str) -> str:
    """Unit of a per-layer metric, read from its name."""
    last = metric.rsplit(".", 1)[-1]
    if last in ("calls", "trials", "accepted", "sampler_builds"):
        return "count"
    if last.startswith("us_"):
        return "us"
    if last.startswith("ns_"):
        return "ns"
    if last.endswith("_mb"):
        return "MiB"
    if last.endswith("_ms"):
        return "ms"
    if last.endswith("_s"):
        return "s"
    return "ratio"


class Recorder:
    """Collects one span per call: name, start, end, parent, command id."""

    def __init__(self):
        self._name_ids: dict[str, int] = {}
        self.name_id = array.array("i")
        self.parent = array.array("q")
        self.start = array.array("q")
        self.end = array.array("q")
        self.command = array.array("i")
        self.work: dict[int, tuple] = {}
        self.unmeasured: set[str] = set()
        self.current_command = 0
        self._stack: list[int] = []

    def install(self) -> list[str]:
        """Wrap the layer functions; returns the names the metrics need
        that the program does not define."""
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "wvsim" or name.startswith("wvsim."))]
        for layer in LAYERS:
            module = sys.modules.get(f"wvsim.{layer}")
            if module is None:  # not loaded by the CLI: its names read as absent
                continue
            for attr, fn in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                wrapped = self._wrap(f"{layer}.{attr}", fn)
                for m in modules:
                    if getattr(m, attr, None) is fn:
                        setattr(m, attr, wrapped)
        return sorted(_MEASURED - set(self._name_ids))

    def _wrap(self, name: str, fn):
        nid = self._name_ids.setdefault(name, len(self._name_ids))
        work = _WORK.get(name)
        signature = inspect.signature(fn) if work else None
        clock = time.perf_counter_ns
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.command.append(self.current_command)
            self.end.append(0)
            stack.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()
            if work is not None:
                try:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    self.work[idx] = work(bound.arguments, result)
                except (AttributeError, KeyError, TypeError, IndexError):
                    self.unmeasured.add(name)
            return result

        return traced

    def save(self, path: str) -> None:
        import numpy as np

        np.savez(
            path,
            names=np.array(list(self._name_ids)),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
            command=np.frombuffer(self.command, dtype=np.int32),
        )

    def metrics(self, wall_ns: int, work_items: int) -> dict[str, float]:
        """Per-layer metrics of the recorded spans over `wall_ns` of wall
        time; `work_items` is the workload's unit of work (table rows,
        clicks, sweep points or oracle checks) for calls_per_point."""
        names = list(self._name_ids)
        count = len(self.start)
        layer_of = [names[self.name_id[i]].split(".")[0] for i in range(count)]
        by_name: dict[str, list[int]] = {name: [] for name in names}
        for i in range(count):
            by_name[names[self.name_id[i]]].append(i)
        dur = [self.end[i] - self.start[i] for i in range(count)]
        self_ns = list(dur)
        for i in range(count):
            p = self.parent[i]
            if p >= 0:
                self_ns[p] -= dur[i]

        def entry(i):
            p = self.parent[i]
            return p < 0 or layer_of[p] != layer_of[i]

        def spans_of(fn):
            return by_name.get(fn, [])

        def busy(fn):
            return sum(dur[i] for i in spans_of(fn))

        def work_sum(fn, k=0):
            return sum(self.work[i][k] for i in spans_of(fn) if i in self.work)

        def ratio(a, b):
            return a / b if b else 0.0

        m: dict[str, float] = {}
        for layer in LAYERS:
            m[f"{layer}.share"] = ratio(
                sum(s for s, l in zip(self_ns, layer_of) if l == layer), wall_ns)
        cli_self = sum(s for s, l in zip(self_ns, layer_of) if l == "cli")
        m["cli.calls"] = sum(1 for i in range(count) if layer_of[i] == "cli" and entry(i))
        m["cli.self_ms"] = cli_self / 1e6

        analytic = [i for i in range(count) if layer_of[i] == "analytic" and entry(i)]
        analytic_ns = sum(dur[i] for i in analytic)
        m["analytic.calls"] = len(analytic)
        m["analytic.busy_s"] = analytic_ns / 1e9
        m["analytic.us_per_call"] = ratio(analytic_ns / 1e3, len(analytic))
        m["analytic.calls_per_point"] = ratio(len(analytic), work_items)

        seq = "grid.evolve_sequential"
        m[f"{seq}.calls"] = len(spans_of(seq))
        m[f"{seq}.busy_s"] = busy(seq) / 1e9
        m[f"{seq}.ns_per_node_block"] = ratio(busy(seq), work_sum(seq))
        joint = "grid.evolve_joint"
        m[f"{joint}.calls"] = len(spans_of(joint))
        m[f"{joint}.busy_s"] = busy(joint) / 1e9
        m[f"{joint}.ns_per_entry"] = ratio(busy(joint), work_sum(joint))
        m[f"{joint}.computed_mb"] = max(
            (self.work[i][0] for i in spans_of(joint) if i in self.work), default=0
        ) * _JOINT_BYTES_PER_ENTRY / 2 ** 20
        m["grid.moments.busy_s"] = busy("grid.moments") / 1e9
        m["grid.cdf.busy_s"] = busy("grid.cdf") / 1e9
        under_mc = [i for i in range(count)
                    if layer_of[i] == "grid" and entry(i)
                    and self.parent[i] >= 0 and layer_of[self.parent[i]] == "montecarlo"]
        m["grid.under_montecarlo_share"] = ratio(sum(dur[i] for i in under_mc), wall_ns)

        rt, fc = "montecarlo.run_trials", "montecarlo.first_click"
        m[f"{rt}.calls"] = len(spans_of(rt))
        m[f"{rt}.self_s"] = sum(self_ns[i] for i in spans_of(rt)) / 1e9
        m[f"{rt}.ns_per_click"] = ratio(busy(rt), work_sum(rt, 1))
        rng = "montecarlo.trial_rng"
        m[f"{rng}.calls"] = len(spans_of(rng))
        m[f"{rng}.busy_s"] = busy(rng) / 1e9
        m[f"{rng}.ns_per_call"] = ratio(busy(rng), len(spans_of(rng)))
        m[f"{fc}.self_ms"] = sum(self_ns[i] for i in spans_of(fc)) / 1e6
        m["montecarlo.anomaly_report.busy_s"] = busy("montecarlo.anomaly_report") / 1e9
        builds = sum(1 for i in spans_of(seq)
                     if self.parent[i] >= 0 and layer_of[self.parent[i]] == "montecarlo")
        m["montecarlo.sampler_builds"] = builds
        m["montecarlo.sampler_miss_ratio"] = ratio(builds, len(spans_of(rt)) + len(spans_of(fc)))
        trials = work_sum(rt, 0) + work_sum(fc, 0)
        accepted = work_sum(rt, 1) + work_sum(fc, 1)
        m["montecarlo.trials"] = trials
        m["montecarlo.accepted"] = accepted
        m["montecarlo.acceptance_ratio"] = ratio(accepted, trials)
        return m
