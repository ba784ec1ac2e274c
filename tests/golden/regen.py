"""Rewrite the golden traces on purpose, or check them, and report which
files changed.

Run from the root of a checkout:

    python tests/golden/regen.py           # rewrite what differs
    python tests/golden/regen.py --check   # rewrite nothing; exit 1 if anything differs

Every case in ``tests/test_golden.py`` is run and compared with its file,
and so is the numpy version stored beside the files; each file is reported
``changed`` or ``unchanged``.  A changed file's line says how far it moved:
how many of its float cells (numbers written with a point or an exponent)
differ, and the largest relative difference among them, or why its cells
cannot be paired.  Without ``--check`` the changed files are rewritten.
Only do that in a change that alters outputs deliberately, and say so in
that change.  ``--check`` writes nothing and exits 1 if any file
differs, so a change that claims to keep every bit can show it.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
import tempfile
from pathlib import Path

import numpy as np

TESTS_DIR = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(TESTS_DIR.parent / "src"))
sys.path.insert(0, str(TESTS_DIR))

from test_golden import CASES, GOLDEN_DIR, NUMPY_VERSION_FILE  # noqa: E402


# A float cell is a token that repr or json.dumps writes for a float: with a
# point or an exponent, or a non-finite value.  Integers are counts, not cells.
_SEPARATORS = re.compile(r'[\s,:=\[\]{}"]+')
_FLOAT = re.compile(r"[-+]?((\d+\.\d*|\.\d+)(e[-+]?\d+)?|\d+e[-+]?\d+|inf|nan|Infinity|NaN)")


def _relative_difference(a: float, b: float) -> float:
    if a == b:  # 0.0 and -0.0
        return 0.0
    return abs(a - b) / max(abs(a), abs(b)) if math.isfinite(a) and math.isfinite(b) else math.inf


def moved(old: bytes, new: bytes) -> str:
    """How far a file moved: '(k of N cells, max rel r)' over its float
    cells, or why they cannot be paired."""
    tokens = [_SEPARATORS.split(data.decode("utf-8", "replace")) for data in (old, new)]
    layouts = [[None if _FLOAT.fullmatch(token) else token for token in side] for side in tokens]
    if layouts[0] != layouts[1]:
        return "(its text outside the float cells changed)"
    cells = [(a, b) for a, b, other in zip(*tokens, layouts[0]) if other is None]
    differ = [_relative_difference(float(a), float(b)) for a, b in cells if a != b]
    return f"({len(differ)} of {len(cells)} cells, max rel {max(differ, default=0.0):.2g})"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true", help="write nothing; exit 1 if any file differs")
    check = parser.parse_args(argv).check
    outputs = {}
    for name, build in sorted(CASES.items()):
        with tempfile.TemporaryDirectory() as work_dir:
            outputs[GOLDEN_DIR / name] = build(Path(work_dir))
    outputs[NUMPY_VERSION_FILE] = (np.__version__ + "\n").encode("utf-8")
    changed = []
    for target, data in outputs.items():
        old = target.read_bytes() if target.exists() else None
        if old == data:
            print(f"unchanged: {target.name}")
            continue
        changed.append(target.name)
        print(f"changed: {target.name} {'(new file)' if old is None else moved(old, data)}")
        if not check:
            target.write_bytes(data)
    if check:
        print(f"{len(changed)} file(s) differ; nothing written")
        return 1 if changed else 0
    print(f"{len(changed)} file(s) changed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
