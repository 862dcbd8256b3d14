"""The "same numbers" corpus: run configurations and their expected series.

``tests/corpus/<name>.json`` is a configuration and ``<name>.csv`` the series
that ``triphoton.cli.run`` writes for it, at 17 significant digits.
``tests/test_corpus.py`` reruns every configuration and compares values, not
bytes, to ``TOL``: another numpy or BLAS may move the last bit, while
byte-identical reruns on one machine are checked elsewhere.

Run as a script from anywhere in a checkout to rewrite the expected series:

    python tests/same_numbers.py

It prints, per configuration, the largest change against the series it
replaces.  A change that regenerates the corpus says in CHANGES.md which
series moved and by how much.
"""

from __future__ import annotations

import contextlib
import io
import sys
import tempfile
from pathlib import Path

import numpy as np

CORPUS = Path(__file__).resolve().parent / "corpus"
TOL = 1e-12


def parse(text: str) -> tuple[list[str], np.ndarray]:
    """Header and values (one row per point) of a series CSV."""
    header, *rows = text.strip().split("\n")
    return header.split(","), np.array([[float(v) for v in row.split(",")] for row in rows])


def mismatches(expected: str, actual: str, tol: float = TOL) -> list[str]:
    """Where ``actual`` differs from ``expected``: columns, rows or a value by more than ``tol``."""
    names, want = parse(expected)
    got_names, got = parse(actual)
    if got_names != names:
        return [f"columns {got_names} instead of {names}"]
    if got.shape != want.shape:
        return [f"{got.shape[0]} rows instead of {want.shape[0]}"]
    return [
        f"row {i} {names[j]}: {got[i, j]!r} instead of {want[i, j]!r}"
        for i, j in zip(*np.nonzero(~(np.abs(got - want) <= tol)))
    ]


def run_series(config: Path, out_dir: Path) -> tuple[int, str | None]:
    """Exit code of ``cli.run`` on ``config`` and the CSV series it wrote, if any."""
    # Imported here: run as a script, this module first puts the checkout's
    # src on the path.
    from triphoton.cli import run

    with contextlib.redirect_stdout(io.StringIO()):
        code = run(str(config), out_dir=str(out_dir))
    series = out_dir / "run_series.csv"
    return code, series.read_text() if series.exists() else None


def regenerate() -> int:
    for config in sorted(CORPUS.glob("*.json")):
        with tempfile.TemporaryDirectory() as out:
            code, text = run_series(config, Path(out))
        if code != 0:
            print(f"{config.name}: exit {code}, corpus left as it was", file=sys.stderr)
            return 1
        target = config.with_suffix(".csv")
        moved = "new"
        if target.exists():
            (old_names, old), (names, new) = parse(target.read_text()), parse(text)
            if old_names == names and old.shape == new.shape:
                moved = f"max |change| {np.abs(new - old).max():.3e}"
            else:
                moved = "columns or rows changed"
        target.write_text(text, encoding="utf-8")
        print(f"{target.name}: {moved}")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    sys.exit(regenerate())
