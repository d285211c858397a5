"""Pytest configuration for the repository.

Makes the ``src`` layout importable even when the package has not been
installed (e.g. a fresh checkout without ``pip install -e .``), so that
``pytest tests/`` and ``pytest benchmarks/`` work out of the box.
"""

import os
import sys

_SRC = os.path.join(os.path.dirname(__file__), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)
