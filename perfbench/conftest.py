"""Make the benchmark's modules and the checkout's ``src`` importable
for ``python3 -m pytest perfbench``."""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
for path in (HERE, os.path.join(os.path.dirname(HERE), "src")):
    if path not in sys.path:
        sys.path.insert(0, path)
