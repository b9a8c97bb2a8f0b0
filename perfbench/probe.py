"""Set-up probe for the Table 1 rows: a fresh process that imports the
synthesizer, builds the workload's problem and prints ``ready``.  The
caller times it from spawn to that line.

    python3 perfbench/probe.py WORKLOAD
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import table1  # noqa: E402
from repro.synthesis import synthesize  # noqa: E402,F401 - part of set-up

if __name__ == "__main__":
    table1.build(sys.argv[1])
    print("ready", flush=True)
