"""Locating the `localfields` sources the benchmark measures.

The benchmark runs from the root of a checkout and imports the package from
``src/`` of that checkout, never from an installed copy.
"""

from __future__ import annotations

import hashlib
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "localfields"


class MissingSources(RuntimeError):
    pass


def require_package():
    """Put ``src/`` first on the import path and import `localfields` from it.

    Raises MissingSources when the checkout holds no package sources, or
    when the import resolves to a copy outside this checkout.
    """
    if not (PACKAGE / "__init__.py").is_file():
        raise MissingSources(f"no package sources at {PACKAGE}")
    sys.path.insert(0, str(SRC))
    import localfields
    if Path(localfields.__file__).resolve().parent != PACKAGE.resolve():
        raise MissingSources(f"localfields imported from "
                             f"{localfields.__file__}, not from {PACKAGE}")
    return localfields


def module_files():
    return sorted(PACKAGE.glob("*.py"))


def source_lines() -> dict:
    """``wc -l`` of every module of the package, keyed by module name."""
    out = {}
    for path in module_files():
        with open(path, "rb") as fh:
            out[path.stem] = fh.read().count(b"\n")
    return out


def source_digest() -> str:
    """sha256 over the package sources, which identifies the measured code
    where no git metadata is available."""
    h = hashlib.sha256()
    for path in module_files():
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def git_sha():
    """HEAD of the checkout, or None when the checkout is not a git tree."""
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None
