#!/usr/bin/env python
"""Simulator-invariant static analysis — CLI front door.

Usage (from the repo root, with ``PYTHONPATH=src``)::

    python tools/lint.py                      # report findings
    python tools/lint.py --check              # CI gate: nonzero on any finding
    python tools/lint.py --json               # machine-readable report
    python tools/lint.py --check --output r.json  # text to stdout, JSON to r.json
    python tools/lint.py --check src/repro/system # narrow the run to some paths

The same engine is exposed as ``python -m repro lint``.  Rule
catalogue and waiver syntax: docs/linting.md.
"""

import os
import sys

sys.path.insert(
    0,
    os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"),
)

from repro.analysislint.runner import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
