"""One set-up: import coxcone and parse every datum document given.

Usage: python3 setup_probe.py <src dir> <datum.json>...
Prints the seconds from the first statement of this fresh interpreter to
the last document parsed.
"""

import time

start = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, sys.argv[1])

from coxcone import parse_datum  # noqa: E402

for path in sys.argv[2:]:
    parse_datum(Path(path).read_text(encoding="utf-8"))
print(time.perf_counter() - start)
