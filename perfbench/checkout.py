"""Locate the checkout the benchmark runs in and import headcount from it.

The benchmark measures the source tree it sits in, never an installed copy:
`src/headcount` under the checkout root must exist, and the imported package
must come from there.
"""
from __future__ import annotations

import importlib
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")


class CheckoutError(RuntimeError):
    """The checkout does not hold the program's sources."""


def import_headcount():
    """Import the checkout's own `headcount` package; raise CheckoutError if absent."""
    package = os.path.join(SRC, "headcount")
    if not os.path.isfile(os.path.join(package, "__init__.py")):
        raise CheckoutError(f"no headcount sources at {package}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    module = importlib.import_module("headcount")
    if os.path.dirname(os.path.abspath(module.__file__)) != package:
        raise CheckoutError(f"imported headcount from {module.__file__}, not {package}")
    return module


def git_sha() -> str:
    """The checkout's commit, read from `.git` without running git; 'unknown' if absent."""
    git_dir = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git_dir, "HEAD"), encoding="utf-8") as fp:
            head = fp.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        ref_path = os.path.join(git_dir, ref)
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="utf-8") as fp:
                return fp.read().strip()
        with open(os.path.join(git_dir, "packed-refs"), encoding="utf-8") as fp:
            for line in fp:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"
