"""Time negsim's set-up in a fresh interpreter: import, then the lazy
two-qubit Clifford class tables. Prints one JSON object.

Usage: python3 bench/setup_probe.py <path to src>
"""

import json
import sys
import time

t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import negsim  # noqa: E402

t1 = time.perf_counter()
negsim.channels._class_tables()
t2 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "class_tables_s": t2 - t1, "file": negsim.__file__}))
