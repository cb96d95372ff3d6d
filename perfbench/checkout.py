"""Locate the checkout this benchmark runs in and import pairid from its src/."""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def use_checkout_sources() -> Path:
    """Put ROOT/src first on sys.path; exit with status 2 if it has no pairid."""
    src = ROOT / "src"
    if not (src / "pairid" / "__init__.py").is_file():
        print(f"perfbench: no pairid package under {src}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(src))
    return ROOT
