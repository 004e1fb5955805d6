"""Locating the petrisynth sources of the checkout the benchmark sits in."""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRATCH = ROOT / ".perfbench"


def use_source() -> None:
    """Put the checkout's src/ first on the import path, or exit with an
    error when the checkout has no package sources."""
    src = ROOT / "src"
    if not (src / "petrisynth" / "__init__.py").is_file():
        raise SystemExit(f"error: no petrisynth sources under {src}")
    sys.path.insert(0, str(src))
