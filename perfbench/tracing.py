"""Spans recorded from outside the program, and the per-layer metrics made from them.

``install`` replaces each public function under the name its caller looks it
up by (``sweep.steady_state``, ``dynamics.build_liouvillian``, ...) with a
wrapper that records a span: name, start, end, the enclosing span on the
same thread, the request index, and counts taken from the call. Spans stay
in memory until the run ends. A span's self time is its duration minus the
durations of its direct children.
"""

from __future__ import annotations

import functools
import itertools
import resource
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field


@dataclass
class Span:
    sid: int
    parent: int
    name: str
    start: float
    end: float
    thread: int
    request: int
    counts: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _usage(who):
    ru = resource.getrusage(who)
    return ru.ru_minflt, ru.ru_utime, ru.ru_stime


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.request = -1
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, counts=None, usage=None):
        """fn wrapped to record a span; usage is RUSAGE_THREAD or RUSAGE_SELF for rusage deltas."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            sid = next(self._ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            before = _usage(usage) if usage is not None else None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            extra = {}
            if before is not None:
                after = _usage(usage)
                extra["minflt"] = after[0] - before[0]
                extra["user_s"] = after[1] - before[1]
                extra["sys_s"] = after[2] - before[2]
            if counts is not None:
                extra.update(counts(args, kwargs, result))
            self.spans.append(
                Span(sid, parent, name, start, end, threading.get_ident(), self.request, extra)
            )
            return result

        return traced

    def patch(self, owner, attr: str, name: str, **kw) -> None:
        setattr(owner, attr, self.wrap(name, getattr(owner, attr), **kw))


def _generator_mb(args, kwargs, result):
    return {"generator_mb": result.entries.nbytes / 2**20}


def _modes(args, kwargs, result):
    dim = 4 * (kwargs.get("n_max", 3) + 1)
    return {"modes": result.poles.size, "d2": dim * dim}


def _evaluations(args, kwargs, result):
    return {"evaluations": len(args[0]) * len(args[2])}


def _fallback(args, kwargs, result):
    return {"fallback": int(result.used_expm_fallback)}


def _text_bytes(args, kwargs, result):
    return {"bytes": len(result.encode("utf-8"))}


def install(tracer: Tracer) -> None:
    """Wrap every traced layer of dqdcavity under its callers' names."""
    from dqdcavity import cli, dynamics, liouvillian, model, steadystate, sweep

    thread = resource.RUSAGE_THREAD
    for owner in (model, steadystate, sweep, dynamics):
        tracer.patch(owner, "annihilation", "hilbert.operator")
    for owner in (model, steadystate, sweep):
        tracer.patch(owner, "qubit_lowering", "hilbert.operator")
    tracer.patch(liouvillian, "hamiltonian", "model.hamiltonian")
    tracer.patch(liouvillian, "jump_operators", "model.jump_operators")
    for owner in (steadystate, sweep, dynamics):
        tracer.patch(owner, "build_liouvillian", "liouvillian.build_liouvillian",
                     counts=_generator_mb, usage=thread)
        tracer.patch(owner, "steady_state", "steadystate.steady_state", usage=thread)
    tracer.patch(cli, "steady_observables", "steadystate.steady_observables")
    tracer.patch(sweep, "pl_spectrum", "dynamics.pl_spectrum", counts=_modes)
    tracer.patch(cli, "g2", "dynamics.g2")
    tracer.patch(dynamics, "two_time_correlation", "dynamics.two_time_correlation",
                 counts=_fallback)
    tracer.patch(dynamics, "lorentzian_sum", "kernels.lorentzian_sum", counts=_evaluations)
    tracer.patch(dynamics, "exp_decay_sum", "kernels.exp_decay_sum", counts=_evaluations)
    tracer.patch(sweep, "transition_lines", "manifold.transition_lines")
    tracer.patch(sweep, "evaluate_point", "sweep.evaluate_point", usage=thread)
    tracer.patch(cli, "run_sweep", "sweep.run_sweep", usage=resource.RUSAGE_SELF)
    tracer.patch(cli, "run_spectra_panel", "sweep.run_spectra_panel")
    tracer.patch(sweep.SweepResult, "to_csv", "sweep.csv", counts=_text_bytes)
    tracer.patch(cli, "panel_spectra_csv", "sweep.csv", counts=_text_bytes)
    tracer.patch(cli, "panel_lines_csv", "sweep.csv", counts=_text_bytes)
    tracer.patch(cli, "main", "cli.main")


def layer_metrics(spans: list[Span], points: int, cli_calls: int, bytes_written: int,
                  process_sys_share: float) -> dict:
    """Per-layer metrics, {name: {"value", "unit"}}, from the spans of the measured requests.

    Times are mean milliseconds per call unless the name says per point;
    counts are per call or per point as named; CSV and output bytes are per
    CLI call. A layer the workload does not reach reads 0.
    """
    by_name: dict[str, list[Span]] = defaultdict(list)
    child_s: dict[int, float] = defaultdict(float)
    for s in spans:
        by_name[s.name].append(s)
        child_s[s.parent] += s.seconds

    def calls(name):
        return by_name.get(name, [])

    def total(name, key=None):
        return sum((s.counts[key] if key else s.seconds) for s in calls(name))

    def per_call(name, key=None, scale=1.0):
        n = len(calls(name))
        return scale * total(name, key) / n if n else 0.0

    def self_ms_per_call(name):
        n = len(calls(name))
        return 1e3 * sum(s.seconds - child_s[s.sid] for s in calls(name)) / n if n else 0.0

    ms = 1e3
    sweeps = calls("sweep.run_sweep")
    sweep_wall = sum(s.seconds for s in sweeps)
    sweep_cpu = sum(s.counts["user_s"] + s.counts["sys_s"] for s in sweeps)
    modes = total("dynamics.pl_spectrum", "modes")
    d2 = total("dynamics.pl_spectrum", "d2")
    values = [
        ("hilbert.operator_builds_per_point", len(calls("hilbert.operator")) / points, "count"),
        ("hilbert.ms_per_point", ms * total("hilbert.operator") / points, "ms"),
        ("model.hamiltonian_ms", per_call("model.hamiltonian", scale=ms), "ms"),
        ("model.jump_operators_ms", per_call("model.jump_operators", scale=ms), "ms"),
        ("liouvillian.build_ms", per_call("liouvillian.build_liouvillian", scale=ms), "ms"),
        ("liouvillian.builds_per_point", len(calls("liouvillian.build_liouvillian")) / points,
         "count"),
        ("liouvillian.generator_mb", per_call("liouvillian.build_liouvillian", "generator_mb"),
         "MiB"),
        ("liouvillian.minflt_per_call", per_call("liouvillian.build_liouvillian", "minflt"),
         "count"),
        ("liouvillian.sys_ms_per_call",
         per_call("liouvillian.build_liouvillian", "sys_s", ms), "ms"),
        ("steadystate.steady_state_ms", per_call("steadystate.steady_state", scale=ms), "ms"),
        ("steadystate.solves_per_point", len(calls("steadystate.steady_state")) / points, "count"),
        ("steadystate.minflt_per_call", per_call("steadystate.steady_state", "minflt"), "count"),
        ("dynamics.pl_spectrum_self_ms", self_ms_per_call("dynamics.pl_spectrum"), "ms"),
        ("dynamics.useful_mode_ratio", modes / d2 if d2 else 0.0, "ratio"),
        ("dynamics.two_time_correlation_ms",
         per_call("dynamics.two_time_correlation", scale=ms), "ms"),
        ("dynamics.expm_fallbacks", total("dynamics.two_time_correlation", "fallback"), "count"),
        ("kernels.lorentzian_sum_ms", per_call("kernels.lorentzian_sum", scale=ms), "ms"),
        ("kernels.exp_decay_sum_ms", per_call("kernels.exp_decay_sum", scale=ms), "ms"),
        ("kernels.evaluations", (total("kernels.lorentzian_sum", "evaluations")
                                 + total("kernels.exp_decay_sum", "evaluations")) / points,
         "count"),
        ("manifold.transition_lines_ms", per_call("manifold.transition_lines", scale=ms), "ms"),
        ("sweep.evaluate_point_ms", per_call("sweep.evaluate_point", scale=ms), "ms"),
        ("sweep.cores_busy", sweep_cpu / sweep_wall if sweep_wall else 0.0, "ratio"),
        ("sweep.minflt_per_point",
         sum(s.counts["minflt"] for s in sweeps) / points if sweeps else 0.0, "count"),
        ("sweep.csv_ms", ms * total("sweep.csv") / cli_calls, "ms"),
        ("sweep.csv_bytes", total("sweep.csv", "bytes") / cli_calls, "bytes"),
        ("cli.main_self_ms", self_ms_per_call("cli.main"), "ms"),
        ("cli.bytes_written", bytes_written / cli_calls, "bytes"),
        ("process.sys_cpu_share", process_sys_share, "ratio"),
    ]
    return {name: {"value": value, "unit": unit} for name, value, unit in values}
