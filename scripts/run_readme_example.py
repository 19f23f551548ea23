"""Run the Python example under the "Library" heading of README.md.

    python scripts/run_readme_example.py

The example runs with the repository root as its working directory, so
its `corpus/` paths resolve, against whichever `faultlines` the
interpreter imports: the installed package, or the checkout with
`PYTHONPATH=src`.  It prints what the example prints; an error in the
example ends the run with a traceback and a non-zero exit.
"""

import os
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def library_example(readme: str) -> str:
    section = readme.split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def main() -> None:
    code = library_example((ROOT / "README.md").read_text(encoding="utf-8"))
    os.chdir(ROOT)
    exec(compile(code, "README.md (Library)", "exec"), {"__name__": "__main__"})


if __name__ == "__main__":
    main()
