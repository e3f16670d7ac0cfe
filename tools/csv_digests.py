"""SHA-256 digests of 46 reproducible CLI outputs.

    python3 tools/csv_digests.py OUT_DIR

Writes the ``--no-timestamp`` CSVs below into OUT_DIR, which must be empty
or new, through ``cavityent.cli.main`` with the library taken from this
checkout's ``src/``, and prints one ``sha256  name`` line per file in
sorted order. Two checkouts print the same lines exactly when these
outputs are byte-identical, so a change that must keep them shows it as
one ``diff``:

  * the 12 figure bundles (33 files)
  * ``evolve`` with each source at three parameter sets (9 files)
  * ``recurrences --delta 0.5 --k-max 100`` (1 file)
  * ``frontier --kind`` werner, mems and bell (3 files)
"""
from __future__ import annotations

import hashlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from cavityent import cli  # noqa: E402

EVOLVE_SETS = {
    "dephased": ["--delta", "0.5", "--lambda", "0.7", "--gamma", "0.01", "--gt-max", "500"],
    "detuned": ["--delta", "5", "--lambda", "1", "--gt-max", "50"],
    "short": ["--delta", "0.5", "--lambda", "0.7", "--gamma", "0.01", "--gt-max", "4",
              "--n-steps", "41"],
}


def runs(out: Path):
    """The argv of every output, each writing into out."""
    for tag in cli.FIGURE_PRESETS:
        yield ["figure", tag, "--output-dir", str(out), "--no-timestamp"]
    named = [(["recurrences", "--delta", "0.5", "--k-max", "100"], "recurrences.csv")]
    named += [(["frontier", "--kind", kind], f"frontier_{kind}.csv")
              for kind in ("werner", "mems", "bell")]
    named += [(["evolve", *flags, "--source", source], f"evolve_{name}_{source}.csv")
              for name, flags in EVOLVE_SETS.items() for source in ("analytic", "spectral", "rk4")]
    for argv, name in named:
        yield [*argv, "--no-timestamp", "-o", str(out / name)]


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python3 tools/csv_digests.py OUT_DIR", file=sys.stderr)
        return 2
    out = Path(argv[0])
    out.mkdir(parents=True, exist_ok=True)
    if any(out.iterdir()):
        print(f"{out} is not empty", file=sys.stderr)
        return 2
    for command in runs(out):
        if cli.main(command) != 0:
            print(f"failed: {' '.join(command)}", file=sys.stderr)
            return 1
    for path in sorted(out.glob("*.csv")):
        print(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
