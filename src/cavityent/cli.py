"""Command-line front end: trajectory sweeps, figure presets, frontier curves.

All rates are expressed in units of the coupling g: ``--delta`` is Delta/g,
``--gamma`` is gamma*g. CSV files start with '#'-prefixed metadata lines,
then a header row; numbers are printed with 12 significant digits.

Exit codes: 0 success, 2 validation error, 1 runtime failure.
"""
from __future__ import annotations

import argparse
import contextlib
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__, analytic, frontier, trajectory
from .model import SystemParams

TRAJECTORY_HEADER = "gt,concurrence,linear_entropy,bell_max,purity"
FRONTIER_HEADER = "linear_entropy,value"
RECURRENCE_HEADER = "k,gt,concurrence"

_PLANE_CURVES = (frontier.WERNER, frontier.MEMS_CM)
_BELL_CURVES = (frontier.BELL_FRONTIER,)
# parameters exactly as printed in the figure captions: tag -> (the
# _run_sweep_to_csv keywords of the trajectory, the curve kinds)
FIGURE_PRESETS: dict[str, tuple[dict, tuple[str, ...]]] = {
    "1a": (dict(delta_over_g=0.0, lambda_=1.0, gamma_times_g=0.0, gt_max=50.0), _PLANE_CURVES),
    "1b": (dict(delta_over_g=0.5, lambda_=1.0, gamma_times_g=0.0, gt_max=50.0), _PLANE_CURVES),
    "1c": (dict(delta_over_g=5.0, lambda_=1.0, gamma_times_g=0.0, gt_max=50.0), _PLANE_CURVES),
    "2a": (dict(delta_over_g=0.5, lambda_=0.9, gamma_times_g=0.0, gt_max=500.0), _PLANE_CURVES),
    "2b": (dict(delta_over_g=0.5, lambda_=0.7, gamma_times_g=0.0, gt_max=500.0), _PLANE_CURVES),
    "2c": (dict(delta_over_g=0.5, lambda_=0.6, gamma_times_g=0.0, gt_max=500.0), _PLANE_CURVES),
    "3a": (dict(delta_over_g=0.0, lambda_=1.0, gamma_times_g=0.0, gt_max=500.0), _BELL_CURVES),
    "3b": (dict(delta_over_g=0.01, lambda_=1.0, gamma_times_g=0.0, gt_max=500.0), _BELL_CURVES),
    "3c": (dict(delta_over_g=5.0, lambda_=1.0, gamma_times_g=0.0, gt_max=500.0), _BELL_CURVES),
    "4a": (dict(delta_over_g=0.0, lambda_=1.0, gamma_times_g=0.01, gt_max=500.0), _PLANE_CURVES),
    "4b": (dict(delta_over_g=0.5, lambda_=1.0, gamma_times_g=0.01, gt_max=500.0), _PLANE_CURVES),
    "4c": (dict(delta_over_g=1.0, lambda_=1.0, gamma_times_g=0.01, gt_max=500.0), _PLANE_CURVES),
}


# Largest row count of one output. Every sweep source and the CSV work in
# blocks of rows, so an evolve run allocates about 100 bytes per row at its
# peak, about 100 MiB at the cap. The largest count in use is 50 001.
MAX_ROWS = 10**6


def _integer(text: str) -> int:
    """The type of every integer flag and config value; a refusal quotes 20 characters at most."""
    try:
        return int(text)
    except ValueError:
        shown = repr(text) if len(text) <= 20 else f"{text[:20]!r}... ({len(text)} characters)"
        raise argparse.ArgumentTypeError(f"expected an integer, got {shown}") from None


def _row_count(text: str) -> int:
    """A row count from 0 to MAX_ROWS for --n-steps, --n-points, --k-max and
    n_steps: a bad one exits 2, naming its flag or key, before any work."""
    if not 0 <= (n := _integer(text)) <= MAX_ROWS:
        raise argparse.ArgumentTypeError(f"a row count must be from 0 to {MAX_ROWS}")
    return n


def _fmt(x) -> str:
    return f"{float(x):.12g}"


_CSV_BLOCK = 4096


def _write_csv(path: str, meta: dict, header: str, rows: np.ndarray, timestamp: bool):
    """Metadata lines, the header, then one line per row of the 2-D float array.

    The data is written in blocks of _CSV_BLOCK rows, each one ``%`` call:
    the row format (one ``%.12g`` per column, then a newline) repeated once
    per row, applied to the block's values in row-major order. ``%.12g``
    prints exactly what ``_fmt`` prints for each value, no list of row
    strings is built, and the Python floats and text of one block are all
    that is held beside the array.
    """
    lines = [f"# cavityent {__version__}"]
    for key, value in meta.items():
        lines.append(f"# {key} = {value}")
    if timestamp:
        lines.append(f"# generated = {datetime.now(timezone.utc).isoformat()}")
    lines += [header, ""]
    row_format = ",".join(["%.12g"] * rows.shape[1]) + "\n"
    with contextlib.nullcontext(sys.stdout) if path == "-" else open(path, "w") as out:
        out.write("\n".join(lines))
        for lo in range(0, len(rows), _CSV_BLOCK):
            block = rows[lo:lo + _CSV_BLOCK]
            out.write((row_format * len(block)) % tuple(block.ravel().tolist()))


def _real(text: str) -> float:
    # argparse prints an ArgumentTypeError's reason, as the config file does
    try:
        return float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(exc) from None


def _source(text: str) -> str:
    if text not in trajectory.SOURCES:
        raise argparse.ArgumentTypeError(
            f"unknown source {text!r}; expected one of {trajectory.SOURCES}")
    return text


# each evolve parameter, once: config key -> (_run_sweep_to_csv keyword, type,
# default, help). The key's flag is --KEY with '-' for '_', and its metadata
# line names the keyword without a trailing '_'; the default n_steps, None,
# means 5001 rows up to gt_max = 50 and 50001 beyond
_EVOLVE_PARAMS = {
    "delta": ("delta_over_g", _real, 0.0, "detuning Delta/g"),
    "lambda": ("lambda_", _real, 1.0, "initial excited population of atom 1"),
    "gamma": ("gamma_times_g", _real, 0.0, "dephasing rate gamma*g"),
    "gt_max": ("gt_max", _real, 50.0, "last scaled time gt of the grid"),
    "n_steps": ("n_steps", _row_count, None,
                "grid points (default 5001 up to gt_max 50, else 50001)"),
    "source": ("source", _source, trajectory.ANALYTIC,
               f"reduced-state source, one of {', '.join(trajectory.SOURCES)}"),
}


def _load_config_file(path: str) -> dict:
    """_run_sweep_to_csv keywords from a key=value config file; a ValueError
    names the file, and the line and key of a value that does not parse."""
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"{path}: cannot read config file: {exc}") from None
    values = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _EVOLVE_PARAMS:
            raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
        field, cast, _, _ = _EVOLVE_PARAMS[key]
        if field in values:
            raise ValueError(f"{path}:{lineno}: duplicate config key {key!r}")
        try:
            values[field] = cast(value.strip())
        except argparse.ArgumentTypeError as exc:
            raise ValueError(f"{path}:{lineno}: {key}: {exc}") from None
    return values


def _run_sweep_to_csv(output: str, timestamp: bool, command: str, **given):
    kw = {field: default for field, _, default, _ in _EVOLVE_PARAMS.values()} | given
    if kw["n_steps"] is None:
        kw["n_steps"] = 5001 if kw["gt_max"] <= 50.0 else 50001
    # g = 1 internally, so delta and gamma are the flag values
    p = SystemParams(g=1.0, delta=kw["delta_over_g"], lambda_=kw["lambda_"],
                     gamma=kw["gamma_times_g"])
    traj = trajectory.sweep(p, kw["gt_max"], kw["n_steps"], kw["source"])
    meta = {"command": command}
    for field, cast, _, _ in _EVOLVE_PARAMS.values():
        meta[field.rstrip("_")] = _fmt(kw[field]) if cast is _real else kw[field]
    rows = np.column_stack([traj.gt, traj.concurrence, traj.linear_entropy,
                            traj.bell_max, traj.purity])
    _write_csv(output, meta, TRAJECTORY_HEADER, rows, timestamp)


def cmd_evolve(args) -> int:
    fields = _load_config_file(args.config) if args.config is not None else {}
    # the evolve flags default to SUPPRESS, so only flags actually given are
    # in args, and they override the file; _run_sweep_to_csv's defaults
    # supply the rest
    fields.update((field, getattr(args, field))
                  for field, *_ in _EVOLVE_PARAMS.values() if hasattr(args, field))
    _run_sweep_to_csv(args.output, not args.no_timestamp, "evolve", **fields)
    return 0


# curve kind -> builder of that curve from a sample count, with the
# functions looked up at call time so that a wrapper installed on the
# module attribute sees every call
_CURVE_BUILDERS = {
    frontier.WERNER: lambda n: frontier.werner_curve(n),
    frontier.MEMS_CM: lambda n: frontier.mems_curve(n),
    frontier.BELL_FRONTIER: lambda n: frontier.bell_frontier(n),
}


def _write_curve_csv(path: str, timestamp: bool, command: str, curve: frontier.FrontierCurve):
    """The curve CSV of both `figure` and `frontier`."""
    meta = {"command": command, "kind": curve.kind, "n_points": len(curve.points)}
    _write_csv(path, meta, FRONTIER_HEADER, curve.points, timestamp)


def cmd_figure(args) -> int:
    if args.tag not in FIGURE_PRESETS:
        raise ValueError(f"unknown figure tag {args.tag!r}; known: {sorted(FIGURE_PRESETS)}")
    settings, kinds = FIGURE_PRESETS[args.tag]
    # every curve first: a rejected --n-points then costs no sweep and
    # leaves no partial bundle
    curves = [_CURVE_BUILDERS[kind](args.n_points) for kind in kinds]
    outdir = Path(args.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    command = f"figure {args.tag}"
    timestamp = not args.no_timestamp
    _run_sweep_to_csv(
        str(outdir / f"figure{args.tag}_trajectory.csv"), timestamp, command, **settings
    )
    for curve in curves:
        path = str(outdir / f"figure{args.tag}_{curve.kind}.csv")
        _write_curve_csv(path, timestamp, command, curve)
    return 0


def cmd_frontier(args) -> int:
    curve = _CURVE_BUILDERS[args.kind](args.n_points)
    _write_curve_csv(args.output, not args.no_timestamp, "frontier", curve)
    return 0


def cmd_recurrences(args) -> int:
    p = SystemParams(g=1.0, delta=args.delta, lambda_=1.0)
    k, gt_k, c_k = analytic.recurrence_concurrences(p, args.k_max)
    report = frontier.classify_ratio(p, tol=args.tol, q_max=args.q_max)
    meta = {
        "command": "recurrences",
        "delta_over_g": _fmt(args.delta),
        "k_max": args.k_max,
        "ratio_delta_over_omega": _fmt(report.ratio),
        "classification": report.classification,
        "tol": _fmt(args.tol),
        "q_max": args.q_max,
        "best_q": report.best_q if report.best_q is not None else "none",
        "convergents": ";".join(f"{pq}/{q}" for pq, q in report.convergents[:12]),
    }
    _write_csv(
        args.output, meta, RECURRENCE_HEADER, np.column_stack([k, gt_k, c_k]),
        not args.no_timestamp,
    )
    return 0


_SEED_HELP = "accepted for compatibility; no output depends on it"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cavityent",
        description="Entanglement dynamics of two atoms in a vacuum cavity",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(sp):
        sp.add_argument("--output", "-o", default="-", help="CSV path ('-' = stdout)")
        sp.add_argument(
            "--no-timestamp",
            action="store_true",
            default=False,
            help="omit the generated-at metadata line (reproducible output)",
        )

    ev = sub.add_parser(
        "evolve",
        help="sweep trajectory metrics over time",
        argument_default=argparse.SUPPRESS,
    )
    for key, (field, cast, _, text) in _EVOLVE_PARAMS.items():
        ev.add_argument(f"--{key.replace('_', '-')}", dest=field, type=cast,
                        metavar=key.upper(), help=text)
    ev.add_argument("--config", default=None,
                    help="key=value config file; flags given on the command line win")
    add_common(ev)
    ev.set_defaults(func=cmd_evolve)

    fig = sub.add_parser("figure", help="emit the CSV bundle for a paper figure")
    fig.add_argument("tag", help="figure tag, e.g. 1a, 2c, 3b, 4a")
    fig.add_argument("--output-dir", default=".", help="directory for the CSV bundle")
    fig.add_argument("--n-points", type=_row_count, default=257, help="curve sample count")
    fig.add_argument("--seed", type=_integer, default=0, help=_SEED_HELP)
    fig.add_argument("--no-timestamp", action="store_true")
    fig.set_defaults(func=cmd_figure)

    fr = sub.add_parser("frontier", help="emit a reference frontier curve")
    fr.add_argument("--kind", choices=frontier.CURVE_KINDS, required=True)
    fr.add_argument("--n-points", type=_row_count, default=257)
    fr.add_argument("--seed", type=_integer, default=0, help=_SEED_HELP)
    add_common(fr)
    fr.set_defaults(func=cmd_frontier)

    rec = sub.add_parser("recurrences", help="pure-state recurrence series")
    rec.add_argument("--delta", type=float, default=0.0, help="detuning Delta/g")
    rec.add_argument("--k-max", dest="k_max", type=_row_count, default=100)
    rec.add_argument("--tol", type=float, default=1e-6,
                     help="rational-approximation tolerance for Delta/Omega")
    rec.add_argument("--q-max", dest="q_max", type=_integer, default=1000)
    add_common(rec)
    rec.set_defaults(func=cmd_recurrences)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
