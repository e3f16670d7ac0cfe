"""Library workload: plane analytics over four (Delta/g, lambda) sets.

Each set runs ``trajectory.sweep`` to gt = 500 on 50 001 points, the
epsilon = 0.02 coverage of the MEMS and Werner curves (257 knots each), the
smallest distance to the MEMS frontier and, for a mixed initial state, the
mirror-symmetry score. The results go to OUT as JSON, together with the
monotonic time at which the imports finished.

    PYTHONPATH=src python perfbench/plane.py OUT.json [SPANS.json]

With SPANS.json the public cavityent functions are traced (see tracer.py).
"""
import json
import sys
import time

from cavityent import frontier, trajectory
from cavityent.model import SystemParams

IMPORTED = time.monotonic()

# two periodic sets (Delta/Omega rational) and two quasi-periodic ones
SETS = ((0.0, 0.7), (1.0, 0.6), (0.5, 0.7), (5.0, 1.0))
GT_MAX = 500.0
N_STEPS = 50001
N_KNOTS = 257
EPSILON = 0.02


def analyse() -> list[dict]:
    mems = frontier.mems_curve(N_KNOTS)
    werner = frontier.werner_curve(N_KNOTS)
    results = []
    for delta, lam in SETS:
        p = SystemParams(g=1.0, delta=delta, lambda_=lam)
        ratio = frontier.classify_ratio(p, tol=1e-6, q_max=1000)
        traj = trajectory.sweep(p, GT_MAX, N_STEPS)
        cov_mems = frontier.coverage(traj, mems, EPSILON)
        cov_werner = frontier.coverage(traj, werner, EPSILON)
        results.append({
            "delta": delta,
            "lambda": lam,
            "classification": ratio.classification,
            "mems_fraction": cov_mems.fraction_covered,
            "mems_min_distance": cov_mems.min_distance,
            "werner_fraction": cov_werner.fraction_covered,
            "werner_min_distance": cov_werner.min_distance,
            "min_mems_distance": trajectory.min_mems_distance(traj),
            "mirror": (trajectory.mirror_symmetry_check(traj, mems)
                       if lam < 1.0 else None),
        })
    return results


def main(argv: list[str]) -> int:
    out = argv[0]
    tracer = None
    if len(argv) > 1:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
    try:
        results = analyse()
    finally:
        if tracer is not None:
            tracer.write(argv[1])
    with open(out, "w") as fh:
        json.dump({"imported": IMPORTED, "sets": results}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
