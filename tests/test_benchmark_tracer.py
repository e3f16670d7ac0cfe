"""The benchmark's span tracer still fits the library.

perfbench/tracer.py wraps the public functions of the cavityent modules it
names and counts work in the functions listed in its COUNTERS. A library
change that removes a traced module or a counted function, or changes a
counted signature, breaks a traced benchmark run; this test makes it fail
here instead. It sweeps every source through the traced names, as the
benchmark's traced `evolve` runs do, reads the report fields that
perfbench/plane.py reads, and runs `figure` and `frontier` through the
traced CLI.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = r"""
import importlib, json, sys, types
import tracer
import cavityent.cli

t = tracer.Tracer()
t.install()
code = cavityent.cli.main(["frontier", "--kind", "mems", "--n-points", "3",
                           "--no-timestamp", "-o", sys.argv[1]])
code |= cavityent.cli.main(["figure", "1a", "--n-points", "3", "--no-timestamp",
                            "--output-dir", sys.argv[2]])
cli_spans = len(t.spans)
cli_names = sorted({s[0] for s in t.spans})

from cavityent import analytic, evolution, frontier, metrics, trajectory
from cavityent.model import SystemParams

# one small call of every counted function, through the traced names
p = SystemParams(g=1.0, delta=0.5, lambda_=0.7, gamma=0.01)
states = analytic.rho_s_matrices(p, [0.0, 1.0])
evolution.evolve_spectral_grid(p, [0.0, 1.0])
evolution.evolve_rk4(p, 0.1)
traj = trajectory.sweep(p, 1.0, 3)
for source in (trajectory.SPECTRAL, trajectory.RK4):
    trajectory.sweep(p, 1.0, 3, source=source)
metrics.wootters_concurrence_many(states)
metrics.bell_max_many(states)
trajectory.min_mems_distance(traj)
trajectory.mirror_symmetry_check(traj, frontier.mems_curve(5))
# read the report fields that perfbench/plane.py writes: a missing one raises
cov = frontier.coverage(traj, frontier.mems_curve(5), 0.02)
cov.fraction_covered, cov.min_distance
frontier.classify_ratio(p, tol=1e-6, q_max=1000).classification

missing = []
for name in tracer.COUNTERS:
    short, attr = name.split(".")
    fn = getattr(importlib.import_module(f"cavityent.{short}"), attr, None)
    if not isinstance(fn, types.FunctionType):
        missing.append(name)
counted = sorted({s[0] for s in t.spans if s[4]})
# the sweep sources look their functions up at call time, so each one is traced
untraced = sorted({"analytic.x_state_entries", "evolution.evolve_spectral_grid",
                   "evolution.evolve_rk4_grid", "evolution.traced_x_entries"}
                  - {s[0] for s in t.spans})
print(json.dumps({"code": code, "spans": cli_spans, "cli_names": cli_names,
                  "missing": missing, "untraced": untraced,
                  "names": sorted({s[0] for s in t.spans}),
                  "counters": sorted(tracer.COUNTERS), "counted": counted,
                  "metrics": sorted(tracer.aggregate(t.spans))}))
"""


def test_tracer_installs_and_counts(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    out = tmp_path / "mems.csv"
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(out), str(tmp_path / "figure")],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["code"] == 0
    assert out.read_text().count("\n") > 3
    assert result["spans"] > 0
    # the figure run calls the curve builders and the sweep by their traced names
    assert {"frontier.werner_curve", "frontier.mems_curve", "trajectory.sweep"} <= set(
        result["cli_names"]
    )
    # every counter names a function that still exists, and each one fired
    assert result["missing"] == []
    assert result["counted"] == result["counters"]
    assert "frontier.mems_curve.calls" in result["metrics"]
    assert result["untraced"] == []
    assert {"frontier.coverage", "frontier.classify_ratio"} <= set(result["names"])
