"""Print every end-to-end metric of every workload, and its fail_frac.

    python3 perfbench/summary.py [--seed N] [--seconds S]

Runs ``run.py --trace 0`` once per workload, one after the other.
Exits 1 when a workload could not run or an output failed its check.
"""
import argparse
import json
import subprocess
import sys
from pathlib import Path

import run


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    args = parser.parse_args()
    status = 0
    print(f"{'workload':16s} {'metric':12s} {'value':>10s} unit")
    for workload in run.WORKLOADS:
        out = subprocess.run(
            [sys.executable, str(Path(__file__).with_name("run.py")),
             "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", "0"],
            capture_output=True, text=True)
        if out.returncode != 0:
            print(f"{workload:16s} did not run: {out.stderr.strip()}")
            status = 1
            continue
        result = json.loads(out.stdout.splitlines()[-1])
        for name, metric in result["metrics"].items():
            print(f"{workload:16s} {name:12s} {metric['value']:10.4f} {metric['unit']}")
        failed, attempted = result["failed"], result["attempted"]
        print(f"{workload:16s} {'fail_frac':12s} {failed / attempted:10.4f} "
              f"({failed}/{attempted} operations)")
        status |= failed > 0
    return status


if __name__ == "__main__":
    sys.exit(main())
