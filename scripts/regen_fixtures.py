#!/usr/bin/env python3
"""Regenerate the committed golden fixtures under corpus/expected/.

Each corpus program gets its JSON report and its DSA graph in DOT form;
absminus also gets its text report.

Run after an intentional change to report content or solver internals,
then review the diff before committing.  For each golden the script says
whether it is new, unchanged or changed; for a JSON report, whether it
changed outside its `statistics` object, so a change that should move
only solver counters shows at a glance whether it did.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from faultlines.cfg import build_cfg, render_dot  # noqa: E402
from faultlines.cli import config_from_args  # noqa: E402
from faultlines.explorer import Counterexample, run  # noqa: E402
from faultlines.frontend import parse_program  # noqa: E402
from faultlines.report import render_json, render_text  # noqa: E402


def _json_change(old: bytes, new: bytes) -> str:
    before, after = json.loads(old), json.loads(new)
    before.pop("statistics", None)
    after.pop("statistics", None)
    return "statistics only" if before == after else "changed outside statistics"


def _write(path: Path, new: bytes, change=lambda old, new: "changed") -> str:
    """Write `new` to `path`; say how it differs from what was there."""
    old = path.read_bytes() if path.exists() else None
    path.write_bytes(new)
    if old is None:
        return f"{path.name} new"
    return f"{path.name} {'unchanged' if old == new else change(old, new)}"


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
        graph = build_cfg(fn)
        report = run(graph, ce, config_from_args(entry["args"]))
        notes = [
            _write(expected / f"{name}.json", render_json(report), _json_change),
            _write(expected / f"{name}.dot", render_dot(graph).encode("utf-8")),
        ]
        if name == "absminus":
            notes.append(_write(expected / f"{name}.txt", render_text(report).encode("utf-8")))
        print(f"wrote fixtures for {name}: {', '.join(notes)}")


if __name__ == "__main__":
    main()
