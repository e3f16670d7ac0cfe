"""Span tracer for the cavityent benchmark.

``Tracer.install`` wraps every public function of the cavityent modules at each
name a caller looks it up by: ``frontier`` imports ``bell_max_many`` by name,
so both ``metrics.bell_max_many`` and ``frontier.bell_max_many`` are
replaced. Each call becomes one span ``[name, start, end, parent, counts]``
kept in memory; ``Tracer.write`` saves them when the process ends. The
library source is not changed.

Run as a script, this file is the traced twin of ``python -m cavityent.cli``:

    PYTHONPATH=src python perfbench/tracer.py SPANS.json figure 1a --output-dir out
"""
from __future__ import annotations

import functools
import importlib
import json
import math
import sys
import time
import types
from collections import defaultdict

MODULES = ("linalg", "model", "analytic", "evolution", "metrics", "frontier",
           "trajectory", "cli")

# tolerance and denominator horizon of the `recurrences` command defaults
RATIO_TOL = 1e-6
RATIO_Q_MAX = 1000


def _arg(args, kwargs, i, name, default=None):
    if len(args) > i:
        return args[i]
    return kwargs.get(name, default)


def _size(x) -> int:
    shape = getattr(x, "shape", None)
    if shape is not None:
        return math.prod(shape)
    return len(x) if isinstance(x, (list, tuple)) else 1


def _rk4_steps(t_final: float, dt: float) -> int:
    # mirrors the step count of evolution._rk4_run
    return 0 if t_final == 0 else max(1, math.ceil(t_final / dt))


class Tracer:
    """Span recorder for one process."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._classify = None
        self._periodic: dict = {}

    def periodic(self, p) -> int:
        """1 when Delta/Omega is effectively rational (periodic trajectory)."""
        if p not in self._periodic:
            report = self._classify(p, tol=RATIO_TOL, q_max=RATIO_Q_MAX)
            self._periodic[p] = int(report.classification == "EFFECTIVELY_RATIONAL")
        return self._periodic[p]

    def wrap(self, name: str, fn, count):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if count is not None:
                span[4] = count(self, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Replace every public cavityent function by a tracing wrapper."""
        mods = {m: importlib.import_module(f"cavityent.{m}") for m in MODULES}
        self._classify = mods["frontier"].classify_ratio
        wrappers = {}
        for short, mod in mods.items():
            for attr, obj in vars(mod).items():
                if (isinstance(obj, types.FunctionType) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    name = f"{short}.{attr}"
                    wrappers[obj] = self.wrap(name, obj, COUNTERS.get(name))
        for mod in mods.values():
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and obj in wrappers:
                    setattr(mod, attr, wrappers[obj])

    def write(self, path: str):
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def _count_rk4(tracer, args, kwargs, result):
    p = _arg(args, kwargs, 0, "p")
    t_final = _arg(args, kwargs, 1, "gt") / p.g
    dt = _arg(args, kwargs, 2, "dt")
    if dt is None:
        dt = 0.005 / p.omega
    steps = _rk4_steps(t_final, dt)
    if _arg(args, kwargs, 3, "check_step", True):
        steps += _rk4_steps(t_final, dt / 2.0)
    return {"steps": steps}


def _count_spectral(tracer, args, kwargs, result):
    p = _arg(args, kwargs, 0, "p")
    n = _size(_arg(args, kwargs, 1, "gts"))
    # complex128 full-space stack: states x dim^2 x 16 bytes (computed)
    return {"states": n, "bytes": n * p.dim * p.dim * 16}


def _count_result_states(tracer, args, kwargs, result):
    return {"states": _size(result)}


def _count_sweep(tracer, args, kwargs, result):
    return {"points": len(result),
            "periodic": tracer.periodic(_arg(args, kwargs, 0, "p"))}


def _count_traj_periodic(tracer, args, kwargs, result):
    return {"periodic": tracer.periodic(_arg(args, kwargs, 0, "traj").params)}


COUNTERS = {
    "analytic.rho_s_matrices":
        lambda tr, a, k, r: {"states": _size(_arg(a, k, 1, "gt"))},
    "evolution.evolve_spectral_grid": _count_spectral,
    "evolution.evolve_rk4": _count_rk4,
    "metrics.wootters_concurrence_many": _count_result_states,
    "metrics.bell_max_many": _count_result_states,
    "trajectory.sweep": _count_sweep,
    "trajectory.min_mems_distance": _count_traj_periodic,
    "trajectory.mirror_symmetry_check": _count_traj_periodic,
}


def aggregate(spans: list[list]) -> dict[str, float]:
    """Per-function totals from one process's spans.

    ``<fn>.s`` is time inside the call (outermost span of that name only),
    ``<fn>.self_s`` that time minus the spans of its children, ``<fn>.calls``
    the number of calls, ``<fn>.<count>`` the summed counters, and for spans
    tagged with a parameter-set class ``<fn>.periodic_s`` / ``<fn>.quasi_s``
    split the self time. ``<module>.self_s`` sums the self time of a module.
    """
    child = [0.0] * len(spans)
    for name, t0, t1, parent, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    out: dict[str, float] = defaultdict(float)
    for i, (name, t0, t1, parent, counts) in enumerate(spans):
        dur = t1 - t0
        self_s = dur - child[i]
        out[f"{name}.calls"] += 1
        out[f"{name}.self_s"] += self_s
        out[f"{name.split('.')[0]}.self_s"] += self_s
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            out[f"{name}.s"] += dur
        for key, value in (counts or {}).items():
            if key == "periodic":
                out[f"{name}.{'periodic_s' if value else 'quasi_s'}"] += self_s
            out[f"{name}.{key}"] += value
    return dict(out)


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    import cavityent.cli

    print("perfbench-imported", time.monotonic(), file=sys.stderr, flush=True)
    tracer = Tracer()
    tracer.install()
    try:
        return cavityent.cli.main(cli_args)
    finally:
        tracer.write(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
