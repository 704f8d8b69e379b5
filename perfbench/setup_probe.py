"""One set-up of the program, in a fresh interpreter.

Usage: python3 setup_probe.py SRC_DIR < bodies.json

Reads a JSON list of body texts from stdin, imports hullkit from SRC_DIR,
builds every body with ``fileio.parse_body`` and then prints one JSON line
with the body and vertex counts and the CPU time this process has used so
far: interpreter start to inputs ready.
"""

import json
import sys
import time

sys.path.insert(0, sys.argv[1])
texts = json.load(sys.stdin)

from hullkit import fileio  # noqa: E402  (the import is part of what is timed)

built = [fileio.parse_body(text) for text in texts]
counts = {"bodies": len(built), "vertices": sum(len(b) for b in built)}
print(json.dumps({"cpu_s": time.process_time(), **counts}), flush=True)
