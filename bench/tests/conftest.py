"""Put the benchmark modules and the repository sources on the import path.

Run from the repository root: ``python -m pytest bench/tests -q``.
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
for path in (BENCH.parent / "src", BENCH):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
