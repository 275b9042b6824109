"""Test-session setup.

No ``__pycache__`` is written under ``src/``, by this process or by the CLI
processes the tests start: a checkout that has been tested would otherwise
import faster than a fresh one, which skews every timing taken from it
(perfbench's ``setup_s`` and the cli workload's ``item_p50_s``).

``tests/`` is put on the import path for the reference implementations in
``oracles.py``.
"""

import os
import pathlib
import sys

sys.dont_write_bytecode = True
os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
