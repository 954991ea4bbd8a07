"""Time one workload's set-up in a fresh interpreter.

Set-up is ``import cyins`` plus loading the bundled models and validating the
generated raw models the workload uses: what every ``cyins`` call pays
before doing any work.  ``run.py`` starts this script several times and
reports the median as ``setup_s``; it also calls :func:`build` in-process to
make the models it runs.

    python3 perfbench/setup_probe.py SRC_DIR WORKLOAD SEED   # prints seconds
"""

from __future__ import annotations

import sys
import time

import inputs


def build(workload: str, raws: list[dict]):
    """Import cyins, load the workload's bundled models and validate ``raws``."""
    import cyins

    bundled = {name: cyins.bundled_model(name) for name in inputs.SETUP_BUNDLED[workload]}
    return bundled, [cyins.validate_model(raw) for raw in raws]


def main(argv: list[str]) -> int:
    src, workload, seed = argv
    sys.path.insert(0, src)
    raws = inputs.setup_raws(workload, int(seed))
    start = time.perf_counter()
    build(workload, raws)
    print(repr(time.perf_counter() - start))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
