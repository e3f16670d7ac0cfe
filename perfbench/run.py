"""Closed-loop benchmark of the cavityent CLI and library.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is taken from ``src/``.
One client runs one process at a time, each waiting for the previous one to
exit, and repeats the workload while the next repetition, at the mean pace
so far, ends within ``--seconds`` of the start. CLI processes start fresh, so interpreter start-up and
imports count. Each operation's output is checked (check.py); an operation
fails when it exits non-zero or its output fails the check.

``--trace 0`` reports the end-to-end metrics as medians over repetitions.
``--trace 1`` alternates an untraced and a traced repetition and reports the
per-layer metrics of the traced ones (tracer.py), the import breakdown from
``python -X importtime`` and the tracing overhead. The seed reaches the
program only as ``--seed`` of the ``bell-frontier`` workload.

The last line of standard output is the JSON result; the lines before it
name every metric with its unit and record the seed and the environment.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import check
import tracer as tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REFERENCE = Path(__file__).resolve().parent / "reference.json"
PROCESS_TIMEOUT_S = 60.0
IMPORT_PROBES = 3
BELL_N_POINTS = 257

# `python -m cavityent.cli ARGS` with the end of the imports timestamped:
# the same imports and the same main() call
CLI_STUB = (
    "import sys, time\n"
    "import cavityent.cli as cli\n"
    "print('perfbench-imported', time.monotonic(), file=sys.stderr, flush=True)\n"
    "sys.exit(cli.main(sys.argv[1:]))\n"
)

TRAJECTORY_TOL = 1e-8   # analytic and spectral trajectories, closed-form curves
DEPHASED_TOL = 1e-6     # RK4 and dephased trajectories
PLANE_TOL = 1e-9        # coverage, distances and mirror scores
BELL = "bell"


@dataclass(frozen=True)
class Op:
    """One process of a workload: CLI arguments (None = the library
    workload) and the checks of the files it writes."""

    name: str
    argv: tuple | None
    outputs: tuple


def _figure(tag: str, trajectory_tol: float, curves: tuple, seeded=False) -> Op:
    argv = ("figure", tag, "--output-dir", "{out}", "--no-timestamp")
    if seeded:
        argv += ("--seed", "{seed}")
    outputs = ((f"figure{tag}_trajectory.csv", trajectory_tol),)
    outputs += tuple((f"figure{tag}_{c}.csv", BELL if c == BELL else TRAJECTORY_TOL)
                     for c in curves)
    return Op(f"figure-{tag}", argv, outputs)


def _evolve(name: str, args: tuple, tol: float) -> Op:
    return Op(name, ("evolve", *args, "--no-timestamp", "-o", f"{{out}}/{name}.csv"),
              ((f"{name}.csv", tol),))


WORKLOADS: dict[str, tuple[Op, ...]] = {
    "closed-form": (
        _figure("1a", TRAJECTORY_TOL, ("werner", "mems")),
        _figure("2b", TRAJECTORY_TOL, ("werner", "mems")),
        Op("recurrences", ("recurrences", "--delta", "0.5", "--k-max", "100",
                           "--no-timestamp", "-o", "{out}/recurrences.csv"),
           (("recurrences.csv", TRAJECTORY_TOL),)),
    ),
    "dephased": (
        _figure("4b", DEPHASED_TOL, ("werner", "mems")),
        _evolve("evolve-spectral", ("--source", "spectral", "--delta", "0.5",
                                    "--lambda", "0.7", "--gt-max", "500",
                                    "--n-steps", "50001"), TRAJECTORY_TOL),
        _evolve("evolve-rk4", ("--source", "rk4", "--delta", "0.5", "--lambda", "0.7",
                               "--gamma", "0.01", "--gt-max", "4", "--n-steps", "41"),
                DEPHASED_TOL),
    ),
    "bell-frontier": (_figure("3a", TRAJECTORY_TOL, (BELL,), seeded=True),),
    "plane-analysis": (Op("plane", None, (("plane.json", PLANE_TOL),)),),
}

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

S = "s"
PER_LAYER = {
    "import.total_s": S, "import.numpy_s": S, "import.scipy_s": S,
    "import.cavityent_self_s": S,
    "cli.main.self_s": S, "cli.csv.rows": "count", "cli.csv.bytes": "B",
    "model.hamiltonian.calls": "count", "model.hamiltonian.s": S,
    "analytic.rho_s_matrices.s": S, "analytic.rho_s_matrices.states": "count",
    "analytic.concurrence_closed.s": S, "analytic.concurrence_dephased.s": S,
    "analytic.bell_max_closed.s": S,
    "evolution.evolve_spectral_grid.s": S,
    "evolution.evolve_spectral_grid.states": "count",
    "evolution.evolve_spectral_grid.bytes": "B_computed",
    "evolution.reduce_to_atoms.s": S,
    "evolution.evolve_rk4.s": S, "evolution.evolve_rk4.calls": "count",
    "evolution.evolve_rk4.steps": "count",
    "metrics.wootters_concurrence_many.s": S,
    "metrics.wootters_concurrence_many.states": "count",
    "metrics.bell_max_many.s": S, "metrics.bell_max_many.states": "count",
    "metrics.bell_max_many.calls": "count",
    "metrics.purity_many.s": S, "metrics.linear_entropy_many.s": S,
    "frontier.bell_frontier.s": S, "frontier.random_two_qubit_states.s": S,
    "frontier.bell_frontier.useful_frac": "ratio",
    "frontier.coverage.s": S, "frontier.classify_ratio.s": S,
    "frontier.mems_curve.s": S, "frontier.werner_curve.s": S,
    "trajectory.sweep.self_s": S, "trajectory.sweep.points": "count",
    "trajectory.sweep.periodic_s": S, "trajectory.sweep.quasi_s": S,
    "trajectory.min_mems_distance.s": S,
    "trajectory.min_mems_distance.periodic_s": S,
    "trajectory.min_mems_distance.quasi_s": S,
    "trajectory.mirror_symmetry_check.s": S,
    "trajectory.mirror_symmetry_check.periodic_s": S,
    "trajectory.mirror_symmetry_check.quasi_s": S,
    "trajectory.periodic_frac": "ratio",
    "trace.overhead_s": S,
}


def thread_caps() -> dict[str, str]:
    n = str(len(os.sched_getaffinity(0)))
    return {k: n for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                           "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                           "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env.update(thread_caps(), PYTHONPATH=str(SRC))
    return env


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def environment(seed: int) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "cavityent").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "thread_caps": thread_caps(),
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest(),
        "machine": platform.machine(),
    }


@dataclass
class Proc:
    op: Op
    spawned: float
    exited: float
    imported: float | None
    rss_kb: int
    returncode: int
    stderr: str


def spawn(op: Op, argv: list[str], stderr_path: Path) -> Proc:
    """Run one process to its end (killed after PROCESS_TIMEOUT_S) and return
    its timings and max RSS."""
    with open(stderr_path, "w") as err:
        spawned = time.monotonic()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                                stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        exited = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
    stderr = stderr_path.read_text()
    imported = None
    for line in stderr.splitlines():
        if line.startswith("perfbench-imported "):
            imported = float(line.split()[1])
    return Proc(op, spawned, exited, imported, usage.ru_maxrss,
                proc.returncode, stderr)


def run_op(op: Op, seed: int, out: Path, spans: Path | None) -> Proc:
    out.mkdir(parents=True)
    if op.argv is None:
        argv = [sys.executable, str(ROOT / "perfbench" / "plane.py"),
                str(out / "plane.json")]
        if spans:
            argv.append(str(spans))
    else:
        args = [a.format(out=out, seed=seed) for a in op.argv]
        if spans:
            argv = [sys.executable, str(ROOT / "perfbench" / "tracer.py"),
                    str(spans), *args]
        else:
            argv = [sys.executable, "-c", CLI_STUB, *args]
    proc = spawn(op, argv, out / "stderr.txt")
    if op.argv is None and (out / "plane.json").is_file():
        proc.imported = json.loads((out / "plane.json").read_text())["imported"]
    return proc


def check_op(op: Op, out: Path, reference: dict) -> list[str]:
    problems = []
    for fname, kind in op.outputs:
        path = out / fname
        if not path.is_file():
            problems.append(f"{op.name}: missing {fname}")
        elif kind == BELL:
            problems += check.check_bell(path, BELL_N_POINTS)
        elif fname.endswith(".json"):
            problems += check.check_plane(path, reference[f"{op.name}/{fname}"])
        else:
            problems += check.check_csv(path, reference[f"{op.name}/{fname}"])
    return problems


@dataclass
class Rep:
    wall_s: float
    setup_s: float
    peak_rss_mb: float
    attempted: int
    failed: int
    problems: list
    layers: dict | None


def run_rep(ops, seed, work: Path, reference, traced: bool) -> Rep:
    work.mkdir(parents=True)
    procs, problems, span_files = [], [], []
    for op in ops:
        spans = work / f"{op.name}.spans.json" if traced else None
        procs.append(run_op(op, seed, work / op.name, spans))
        if spans:
            span_files.append(spans)
    failed = 0
    for proc in procs:
        out = work / proc.op.name
        if proc.returncode != 0:
            found = [f"{proc.op.name}: exit code {proc.returncode}: "
                     f"{proc.stderr.strip()[-500:]}"]
        else:
            found = check_op(proc.op, out, reference)
        failed += bool(found)
        problems += found
    setup = sum(p.imported - p.spawned for p in procs if p.imported is not None)
    layers = layer_metrics(procs, work, span_files) if traced and not failed else None
    return Rep(
        wall_s=procs[-1].exited - procs[0].spawned,
        setup_s=setup,
        peak_rss_mb=max(p.rss_kb for p in procs) / 1024.0,
        attempted=len(procs),
        failed=failed,
        problems=problems,
        layers=layers,
    )


def layer_metrics(procs, work: Path, span_files) -> dict[str, float]:
    totals: dict[str, float] = {}
    for path in span_files:
        for key, value in tracing.aggregate(json.loads(path.read_text())).items():
            totals[key] = totals.get(key, 0.0) + value
    out = {name: totals.get(name, 0.0) for name in PER_LAYER}
    # self time of main() and of every cli function it calls
    out["cli.main.self_s"] = totals.get("cli.self_s", 0.0)
    sweeps = totals.get("trajectory.sweep.calls", 0.0)
    out["trajectory.periodic_frac"] = (
        totals.get("trajectory.sweep.periodic", 0.0) / sweeps if sweeps else 0.0)
    rows = size = 0
    useful = 0.0
    for proc in procs:
        for fname, kind in proc.op.outputs:
            path = work / proc.op.name / fname
            if fname.endswith(".csv"):
                rows += len(check.read_csv(path)[1])
                size += path.stat().st_size
            if kind == BELL:
                useful = check.bell_useful_fraction(path)
    out["cli.csv.rows"], out["cli.csv.bytes"] = rows, size
    out["frontier.bell_frontier.useful_frac"] = useful
    return out


def import_breakdown() -> dict[str, float]:
    """``import cavityent.cli`` under ``-X importtime``, in seconds."""
    err = subprocess.run([sys.executable, "-X", "importtime", "-c",
                          "import cavityent.cli"], cwd=ROOT, env=child_env(),
                         capture_output=True, text=True, timeout=PROCESS_TIMEOUT_S,
                         check=True).stderr
    # lines come in completion order (children first); reversed, every entry
    # follows its parent, and the indentation of the name gives the depth
    entries = []
    for line in err.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        self_us, cum_us, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        entries.append((depth, name.strip(), int(self_us) / 1e6, int(cum_us) / 1e6))
    out = dict.fromkeys(("import.total_s", "import.numpy_s", "import.scipy_s",
                         "import.cavityent_self_s"), 0.0)
    ancestors: list[str] = []
    for depth, name, self_s, cum_s in reversed(entries):
        del ancestors[depth:]
        package = name.split(".")[0]
        # numpy modules that scipy pulls in count as scipy's import time
        outermost = not any(a.split(".")[0] in ("numpy", "scipy") for a in ancestors)
        if package == "cavityent":
            out["import.cavityent_self_s"] += self_s
            if not ancestors:
                out["import.total_s"] += cum_s
        elif package in ("numpy", "scipy") and outermost:
            out[f"import.{package}_s"] += cum_s
        ancestors.append(name)
    return out


def median_of(reps, key):
    return statistics.median(getattr(r, key) for r in reps)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    start = time.monotonic()

    if not (SRC / "cavityent" / "cli.py").is_file():
        print(f"error: no cavityent source under {SRC}", file=sys.stderr)
        return 2
    if not REFERENCE.is_file():
        print(f"error: missing {REFERENCE}", file=sys.stderr)
        return 2
    reference = json.loads(REFERENCE.read_text())
    ops = WORKLOADS[args.workload]

    (ROOT / ".perfbench-work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=ROOT / ".perfbench-work"))
    try:
        # fill the bytecode caches and confirm the library comes from src/
        located = subprocess.run(
            [sys.executable, "-c", "import cavityent.cli; print(cavityent.cli.__file__)"],
            cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=PROCESS_TIMEOUT_S)
        if located.returncode != 0 or not located.stdout.strip().startswith(str(SRC)):
            print(f"error: cavityent not importable from {SRC}: "
                  f"{located.stderr.strip()[-500:]}", file=sys.stderr)
            return 2
        imports = []
        if args.trace:
            imports = [import_breakdown() for _ in range(IMPORT_PROBES)]

        plain, traced = [], []
        first = time.monotonic()
        while True:
            n = len(plain)
            plain.append(run_rep(ops, args.seed, work / f"rep{n}", reference, False))
            if args.trace:
                traced.append(run_rep(ops, args.seed, work / f"rep{n}-traced",
                                      reference, True))
            # another repetition only if, at the mean pace so far, it ends in
            # time; a failing program is not timed further
            now = time.monotonic()
            failing = plain[-1].failed or (traced and traced[-1].failed)
            if failing or now + (now - first) / len(plain) > start + args.seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    reps = plain + traced
    attempted = sum(r.attempted for r in reps)
    failed = sum(r.failed for r in reps)
    for problem in sorted({p for r in reps for p in r.problems}):
        print(f"check failed: {problem}")

    if args.trace:
        good = [r.layers for r in traced if r.layers is not None]
        metrics = {}
        for name, unit in PER_LAYER.items():
            if name.startswith("import."):
                value = statistics.median(i[name] for i in imports)
            elif name == "trace.overhead_s":
                value = median_of(traced, "wall_s") - median_of(plain, "wall_s")
            else:
                value = statistics.median(g[name] for g in good) if good else 0.0
            metrics[name] = {"value": value, "unit": unit}
    else:
        metrics = {name: {"value": median_of(plain, name), "unit": unit}
                   for name, unit in END_TO_END.items()}

    for name, m in metrics.items():
        print(f"{name:48s} {m['value']:.6g} {m['unit']}")
    print(f"{'fail_frac':48s} {failed / attempted:.6g} ({failed}/{attempted} operations)")
    print(json.dumps({"env": environment(args.seed), "workload": args.workload,
                      "wall_s_untraced": [r.wall_s for r in plain],
                      "wall_s_traced": [r.wall_s for r in traced]}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
