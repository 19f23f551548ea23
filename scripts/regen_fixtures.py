#!/usr/bin/env python3
"""Regenerate the committed golden report fixtures under corpus/expected/.

Run after an intentional change to report content or solver internals,
then review the diff before committing.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from faultlines.cfg import build_cfg, to_dsa  # noqa: E402
from faultlines.cli import config_from_args  # noqa: E402
from faultlines.explorer import Counterexample, run  # noqa: E402
from faultlines.frontend import parse_program  # noqa: E402
from faultlines.report import render_json, render_text  # noqa: E402


def main() -> None:
    corpus = ROOT / "corpus"
    expected = corpus / "expected"
    expected.mkdir(exist_ok=True)
    manifest = json.loads((corpus / "manifest.json").read_text())
    for name, entry in manifest.items():
        fn = parse_program((corpus / entry["source"]).read_text())
        ce = Counterexample.of(
            json.loads((corpus / entry["ce"]).read_text()), fn.param_names
        )
        graph = to_dsa(build_cfg(fn))
        report = run(graph, ce, config_from_args(entry["args"]))
        (expected / f"{name}.json").write_bytes(render_json(report))
        if name == "absminus":
            (expected / f"{name}.txt").write_text(render_text(report))
        print(f"wrote fixtures for {name}")


if __name__ == "__main__":
    main()
