"""Entry point of the binsched block-replay benchmark.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload hot --seed 1 --seconds 30 --trace 0

It imports binsched from the checkout's ``src/`` and exits with code 1 when
that source tree is missing. See ``replay.py`` for what is measured.
"""

import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"

if __name__ == "__main__":
    if not (SRC / "binsched" / "__init__.py").is_file():
        sys.exit(f"error: no binsched source tree at {SRC}")
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import binsched

    if Path(binsched.__file__).resolve().parent != SRC / "binsched":
        sys.exit(f"error: imported binsched from {binsched.__file__}, not from {SRC}")
    import replay

    sys.exit(replay.main(sys.argv[1:]))
