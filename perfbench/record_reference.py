"""Record the reference values that run.py checks outputs against.

    python3 perfbench/record_reference.py

Runs every operation of every workload once and writes reference.json next
to this file. The references are meant to be recorded once, from the commit
that defined the benchmark, and then kept: a later change whose outputs
move beyond the tolerances fails the check instead of re-recording.
The seeded Bell curve has no reference; it is checked against physics.
"""
import json
import re
import shutil
import sys
import tempfile
from pathlib import Path

import check
import run


def main() -> int:
    reference = {"git_commit": run.git_commit()}
    (run.ROOT / ".perfbench-work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="record-", dir=run.ROOT / ".perfbench-work"))
    try:
        for workload, ops in run.WORKLOADS.items():
            for op in ops:
                out = work / workload / op.name
                proc = run.run_op(op, 0, out, None)
                if proc.returncode != 0:
                    print(proc.stderr, file=sys.stderr)
                    return 1
                for fname, tol in op.outputs:
                    if tol == run.BELL:
                        continue
                    key = f"{op.name}/{fname}"
                    if fname.endswith(".json"):
                        reference[key] = check.plane_reference(out / fname, tol)
                    else:
                        reference[key] = check.csv_reference(out / fname, tol)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    # one innermost list (a sampled row, the sums) per line
    text = re.sub(r"\[\s+([^\[\]]*?)\s+\]",
                  lambda m: "[" + " ".join(m.group(1).split()) + "]",
                  json.dumps(reference, indent=1))
    run.REFERENCE.write_text(text + "\n")
    print(f"wrote {len(reference) - 1} references to {run.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
