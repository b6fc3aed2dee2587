"""Locate and import the program under test from this checkout's ``src``."""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def load():
    """Import ``edesolver`` from ``src`` next to this directory, and only from there."""
    if not (SRC / "edesolver" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no src/edesolver under {ROOT}")
    sys.path.insert(0, str(SRC))
    import edesolver

    if Path(edesolver.__file__).resolve().parent != (SRC / "edesolver").resolve():
        raise SystemExit(f"perfbench: imported edesolver from {edesolver.__file__}, not {SRC}")
    return edesolver
