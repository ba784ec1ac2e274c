"""Rewrite the golden traces on purpose, or check them, and report which
files changed.

Run from the root of a checkout:

    python tests/golden/regen.py           # rewrite what differs
    python tests/golden/regen.py --check   # rewrite nothing; exit 1 if anything differs

Every case in ``tests/test_golden.py`` is run and compared with its file,
and so is the numpy version stored beside the files; each file is reported
``changed`` or ``unchanged``.  Without ``--check`` the changed files are
rewritten.  Only do that in a change that alters outputs deliberately, and
say so in that change.  ``--check`` writes nothing and exits 1 if any file
differs, so a change that claims to keep every bit can show it.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from pathlib import Path

import numpy as np

TESTS_DIR = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(TESTS_DIR.parent / "src"))
sys.path.insert(0, str(TESTS_DIR))

from test_golden import CASES, GOLDEN_DIR, NUMPY_VERSION_FILE  # noqa: E402


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
        differs = not target.exists() or target.read_bytes() != data
        if differs:
            changed.append(target.name)
            if not check:
                target.write_bytes(data)
        print(f"{'changed' if differs else 'unchanged'}: {target.name}")
    if check:
        print(f"{len(changed)} file(s) differ; nothing written")
        return 1 if changed else 0
    print(f"{len(changed)} file(s) changed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
