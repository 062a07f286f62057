"""Print the CPU seconds and the wall seconds a fresh interpreter spends
before its first operation: importing torusglue and building one workload's
Gram reductions, lines and gluing parameters.  With `reference` in place of
a workload it times importing a fixed set of standard-library modules
instead, the yardstick run.py scales set-up times by.
Run by run.py:  python3 bench/setup_probe.py <workload>|reference
"""

import os
import sys
import time

cpu, wall = time.process_time(), time.perf_counter()
if sys.argv[1] == "reference":
    import argparse, asyncio, csv, decimal, email.parser, http.client  # noqa: E401, F401
    import pydoc, sqlite3, tarfile, unittest, xml.dom.minidom, zipfile  # noqa: E401, F401
else:
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
    import workloads  # noqa: E402  (imports torusglue)

    workloads.build(sys.argv[1])
print(repr(time.process_time() - cpu), repr(time.perf_counter() - wall))
