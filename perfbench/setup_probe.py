"""Child process for the set-up measurement: cold ``import posikit``, then
``load_design`` and ``canonicalize`` on each design file given as an
argument. Prints its own phase timings as one JSON line."""

import json
import sys
import time

t0 = time.perf_counter()
import posikit  # noqa: E402

t1 = time.perf_counter()
load_s = canonicalize_s = 0.0
for path in sys.argv[1:]:
    t = time.perf_counter()
    matrix = posikit.load_design(path)
    load_s += time.perf_counter() - t
    t = time.perf_counter()
    posikit.canonicalize(matrix)
    canonicalize_s += time.perf_counter() - t
print(json.dumps({"import_s": t1 - t0, "load_s": load_s,
                  "canonicalize_s": canonicalize_s}))
