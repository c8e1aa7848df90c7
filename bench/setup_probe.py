"""Fresh-process set-up cost: `import uminflow` plus the first-use warm-up.

    python3 bench/setup_probe.py SRC_DIR

prints one JSON line with the seconds spent importing the package and
warming it up.  The warm-up grows the universal-poset stage builder to its
cap and enumerates the rationals up to the default search budget, the
caches that the first `test`, `iso` and `randomizer` call in a process pays
for.  run.py starts several of these processes, one at a time, and reports
their median as setup_s; it runs warm_up itself before its first timed op.
"""

import json
import sys
import time


def warm_up(um) -> dict[str, float]:
    t0 = time.perf_counter()
    um.fraisse.universal_poset_stage(um.fraisse.DEFAULT_POSET_CAP)
    t1 = time.perf_counter()
    um.fraisse.rational_value(um.fraisse.DEFAULT_SEARCH_BUDGET)
    t2 = time.perf_counter()
    return {"stage_s": t1 - t0, "rational_s": t2 - t1}


def main(src: str) -> dict[str, float]:
    t0 = time.perf_counter()
    sys.path.insert(0, src)
    import uminflow
    import uminflow.cli

    t1 = time.perf_counter()
    phases = warm_up(uminflow)
    total = time.perf_counter() - t0
    return {"import_s": t1 - t0, **phases, "total_s": total, "file": uminflow.__file__}


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1])))
