#!/usr/bin/env python3
"""Check that importing the command-line module loads no costly stdlib module.

Every `faultlines` process pays for its imports.  `dataclasses`, with the
`inspect` and `ast` modules it loads, once took about half the package's
import time, so none of them may be loaded at start-up.

    python scripts/check_cold_import.py

It imports whichever `faultlines` is first on the path (the installed
package, or `src/` with `PYTHONPATH=src`) and exits 1, naming the modules,
if any of them was loaded.  Run it in a fresh interpreter: test runners
load these modules themselves.
"""

import sys

import faultlines.cli

AVOIDED = ("dataclasses", "inspect", "ast")

loaded = [name for name in AVOIDED if name in sys.modules]
if loaded:
    sys.exit(f"importing faultlines.cli loaded {', '.join(loaded)}")
print(f"{faultlines.cli.__file__}: loads none of {', '.join(AVOIDED)}")
