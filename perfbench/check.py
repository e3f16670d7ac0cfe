"""Output checks behind the benchmark's failure count.

Trajectory, curve and recurrence CSVs are compared with reference values
recorded once (``reference.json``, written by ``record_reference.py``):

  * the column-header row, exactly, and the number of data rows;
  * every sampled row (every ``stride``-th row plus the last), within ``tol``;
  * every column sum, within ``rows * tol`` (a change of at most ``tol`` per
    value cannot move it further, so a larger shift means some unsampled
    row moved by more than ``tol``);
  * on trajectories, every row: the gt grid, the physical ranges and
    M = (4/3)(1 - purity).

The Bell curve depends on the seed and is checked against physics instead,
so that a closed-form frontier passes as well as the sampled one: monotone
non-increasing, 2*sqrt(2) at M = 0, and between the Bell-diagonal envelope
minus 1e-9 and the envelope plus 1e-3 (the Nelder-Mead anchors of the
sampled frontier overshoot by at most 7e-4).

The plane-analysis JSON is compared value by value within ``tol``.
Each check returns a list of problems; an empty list means the output is
correct.
"""
from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

TRAJECTORY_HEADER = "gt,concurrence,linear_entropy,bell_max,purity"
TSIRELSON = 2.0 * math.sqrt(2.0)
SAMPLED_ROWS = 250
RANGE_EPS = 1e-9
BELL_BELOW = 1e-9
BELL_ABOVE = 1e-3


def read_csv(path: Path) -> tuple[str, np.ndarray]:
    """Column-header row and the (rows, columns) data of a cavityent CSV."""
    lines = [line for line in path.read_text().splitlines()
             if not line.startswith("#")]
    header, body = lines[0], lines[1:]
    data = np.array([[float(x) for x in line.split(",")] for line in body])
    return header, data.reshape(len(body), len(header.split(",")))


def csv_reference(path: Path, tol: float) -> dict:
    """Reference record of one CSV output."""
    header, data = read_csv(path)
    stride = -(-len(data) // SAMPLED_ROWS)
    rows = list(range(0, len(data), stride))
    if rows[-1] != len(data) - 1:
        rows.append(len(data) - 1)
    return {
        "tol": tol,
        "header": header,
        "rows": len(data),
        "sampled": rows,
        "values": data[rows].tolist(),
        "sums": data.sum(axis=0).tolist(),
    }


def check_csv(path: Path, ref: dict) -> list[str]:
    header, data = read_csv(path)
    if header != ref["header"]:
        return [f"{path.name}: header {header!r} != {ref['header']!r}"]
    if len(data) != ref["rows"]:
        return [f"{path.name}: {len(data)} rows, expected {ref['rows']}"]
    tol = ref["tol"]
    problems = []
    if not np.all(np.isfinite(data)):
        problems.append(f"{path.name}: non-finite values")
    err = np.abs(data[ref["sampled"]] - np.array(ref["values"])).max()
    if not err <= tol:
        problems.append(f"{path.name}: sampled rows differ by {err:.3e} > {tol:g}")
    sum_err = np.abs(data.sum(axis=0) - np.array(ref["sums"])).max()
    if not sum_err <= tol * len(data):
        problems.append(
            f"{path.name}: column sums differ by {sum_err:.3e} > {tol * len(data):.3e}")
    if header == TRAJECTORY_HEADER:
        problems += _trajectory_invariants(path.name, data)
    return problems


def _trajectory_invariants(name: str, data: np.ndarray) -> list[str]:
    gt, conc, m, bell, purity = data.T
    problems = []
    grid = np.linspace(0.0, gt[-1], len(gt))
    if np.abs(gt - grid).max() > 1e-9 * max(1.0, gt[-1]):
        problems.append(f"{name}: gt column is not a uniform grid")
    for values, lo, hi, label in ((conc, 0.0, 1.0, "concurrence"),
                                  (m, 0.0, 1.0, "linear entropy"),
                                  (bell, 0.0, TSIRELSON, "bell_max"),
                                  (purity, 0.25, 1.0, "purity")):
        if values.min() < lo - RANGE_EPS or values.max() > hi + RANGE_EPS:
            problems.append(f"{name}: {label} outside [{lo}, {hi}]")
    if np.abs(m - 4.0 / 3.0 * (1.0 - purity)).max() > 1e-9:
        problems.append(f"{name}: linear entropy != (4/3)(1 - purity)")
    return problems


def bell_envelope(m: np.ndarray) -> np.ndarray:
    """Closed-form Bell-diagonal CHSH envelope: |B|^2 = 4(2 - 3M/2) for
    M <= 2/3 and 12(1 - M) above."""
    return np.where(m <= 2.0 / 3.0,
                    2.0 * np.sqrt(np.clip(2.0 - 1.5 * m, 0.0, None)),
                    2.0 * np.sqrt(np.clip(3.0 * (1.0 - m), 0.0, None)))


def check_bell(path: Path, n_points: int) -> list[str]:
    header, data = read_csv(path)
    if header != "linear_entropy,value" or len(data) != n_points:
        return [f"{path.name}: expected {n_points} rows of linear_entropy,value"]
    m, b = data.T
    env = bell_envelope(m)
    problems = []
    if abs(m[0]) > 1e-12 or abs(m[-1] - 1.0) > 1e-12 or np.any(np.diff(m) <= 0):
        problems.append(f"{path.name}: M knots not increasing over [0, 1]")
    if np.any(np.diff(b) > 0):
        problems.append(f"{path.name}: curve increases with M")
    if abs(b[0] - TSIRELSON) > 1e-9:
        problems.append(f"{path.name}: value at M = 0 is {b[0]!r}, not 2*sqrt(2)")
    if np.any(b < env - BELL_BELOW):
        problems.append(f"{path.name}: below the Bell-diagonal envelope")
    if np.any(b > env + BELL_ABOVE):
        problems.append(
            f"{path.name}: {(b - env).max():.3e} above the envelope (> {BELL_ABOVE:g})")
    return problems


def bell_useful_fraction(path: Path) -> float:
    """Share of emitted knots strictly above the Bell-diagonal envelope."""
    _, data = read_csv(path)
    m, b = data.T
    return float(np.mean(b > bell_envelope(m) + BELL_BELOW))


def plane_reference(path: Path, tol: float) -> dict:
    return {"tol": tol, "sets": json.loads(path.read_text())["sets"]}


def check_plane(path: Path, ref: dict) -> list[str]:
    sets = json.loads(path.read_text())["sets"]
    if len(sets) != len(ref["sets"]):
        return [f"{path.name}: {len(sets)} parameter sets, expected {len(ref['sets'])}"]
    problems = []
    for got, want in zip(sets, ref["sets"]):
        for key, expected in want.items():
            value = got.get(key)
            if isinstance(expected, float):
                ok = isinstance(value, float) and abs(value - expected) <= ref["tol"]
            else:
                ok = value == expected
            if not ok:
                problems.append(
                    f"{path.name}: delta={want['delta']} lambda={want['lambda']} "
                    f"{key} = {value!r}, expected {expected!r}")
    return problems
