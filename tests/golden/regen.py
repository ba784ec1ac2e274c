"""Rewrite the golden traces on purpose and report which files changed.

Run from the root of a checkout:

    python tests/golden/regen.py

Every case in ``tests/test_golden.py`` is run, its file rewritten, and the
numpy version stored beside the files.  Only do this in a change that
alters outputs deliberately, and say so in that change.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

import numpy as np

TESTS_DIR = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(TESTS_DIR.parent / "src"))
sys.path.insert(0, str(TESTS_DIR))

from test_golden import CASES, GOLDEN_DIR, NUMPY_VERSION_FILE  # noqa: E402


def main() -> int:
    changed = []
    for name, build in sorted(CASES.items()):
        target = GOLDEN_DIR / name
        with tempfile.TemporaryDirectory() as work_dir:
            data = build(Path(work_dir))
        old = target.read_bytes() if target.exists() else None
        if data != old:
            target.write_bytes(data)
            changed.append(name)
        print(f"{'changed' if data != old else 'unchanged'}: {name}")
    version = np.__version__ + "\n"
    if not NUMPY_VERSION_FILE.exists() or NUMPY_VERSION_FILE.read_text(encoding="utf-8") != version:
        NUMPY_VERSION_FILE.write_text(version, encoding="utf-8")
        changed.append(NUMPY_VERSION_FILE.name)
        print(f"changed: {NUMPY_VERSION_FILE.name} (numpy {np.__version__})")
    print(f"{len(changed)} file(s) changed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
