"""``perfbench/run.py`` with a planted slowdown in one layer.

Usage, from the root of a checkout::

    python3 perfbench/tests/planted_run.py ENTRY FACTOR -- RUN.PY-ARGS

``ENTRY`` is a ``module:function`` or ``module:Class.method`` entry
point (as in ``perfbench/spans.py``), replaced wherever it is bound;
every call to it is followed by a sleep of
``FACTOR`` times the call's own duration, so that layer runs
``1 + FACTOR`` times slower.  The wrapper lives only in this process.
"""

from __future__ import annotations

import functools
import os
import sys
import time


def plant(entry: str, factor: float) -> None:
    from perfbench.spans import bindings, import_all

    import_all()
    owners, original = bindings(entry)

    @functools.wraps(original)
    def slowed(*args, **kwargs):
        start = time.perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            time.sleep(factor * (time.perf_counter() - start))

    for owner, name in owners:
        setattr(owner, name, slowed)


def main() -> int:
    entry, factor, separator = sys.argv[1:4]
    if separator != "--":
        raise SystemExit(__doc__)
    root = os.getcwd()
    sys.path[:0] = [os.path.join(root, "src"), root]
    from perfbench import run

    plant(entry, float(factor))
    return run.main(sys.argv[4:])


if __name__ == "__main__":
    sys.exit(main())
