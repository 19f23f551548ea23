"""The benchmark's workloads: localization tasks and their expected outcomes.

A :class:`Case` is one localization task: a program text, a failing
input, the command-line flags it runs at, the source line holding the
seeded bug, and (where frozen) the digest of the expected report with
its ``statistics`` block left out.

* ``corpus``: the five programs of ``corpus/`` at their manifest flags and
  the default domain; the reference is ``corpus/expected/``.
* ``tritype``: the triangle classifier in ``tritype/`` with eight
  hand-seeded mutants, at ``--bcond 3`` on the domain [-128, 127].
* ``mutants``: forty generated single-mutation programs (see
  ``mutants.py``) at ``--bcond 2`` on the domain [-128, 127].
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE_DIR = HERE / "reference"

WORKLOADS = ("corpus", "tritype", "mutants")
TRITYPE_ARGS = ("--bcond", "3", "--domain=-128:127")
MUTANT_ARGS = ("--bcond", "2", "--domain=-128:127")
MUTANT_COUNT = 40
DEFAULT_MUTANT_SEED = 1


@dataclass(frozen=True)
class Case:
    name: str
    text: str
    inputs: dict
    args: tuple  # CLI flags after the program and the --in bindings
    seeded_line: int
    reference: str = None  # digest of the expected report minus statistics


def report_digest(doc: dict) -> str:
    """Digest of a parsed report with its statistics block left out."""
    body = {k: v for k, v in doc.items() if k != "statistics"}
    text = json.dumps(body, sort_keys=True, separators=(",", ":"), ensure_ascii=False)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def explorer_config(args):
    """The ExplorerConfig the CLI builds from these flags, parsed by the
    CLI's own argument parser so its defaults and validation apply."""
    from faultlines.cli import _build_arg_parser
    from faultlines.explorer import ExplorerConfig
    from faultlines.mcs import McsConfig

    ns = _build_arg_parser().parse_args(["run", "-", *args])
    return ExplorerConfig(
        b_cond=ns.bcond, mcs=McsConfig(b_mcs=ns.bmcs, k_max=ns.kmax), dom=ns.domain)


def _load_references(name: str) -> dict:
    path = REFERENCE_DIR / f"{name}.json"
    return json.loads(path.read_text()) if path.exists() else {}


def corpus_cases() -> list:
    corpus = ROOT / "corpus"
    manifest = json.loads((corpus / "manifest.json").read_text())
    cases = []
    for name, entry in manifest.items():
        expected = json.loads((corpus / "expected" / f"{name}.json").read_text())
        cases.append(
            Case(
                name=name,
                text=(corpus / entry["source"]).read_text(),
                inputs=json.loads((corpus / entry["ce"]).read_text()),
                args=tuple(entry["args"]),
                seeded_line=int(re.search(r"line (\d+)", entry["seeded_bug"]).group(1)),
                reference=report_digest(expected),
            )
        )
    return cases


def tritype_mutants() -> list:
    """(name, mutated source, entry) for every hand-seeded Tritype mutant."""
    lines = (HERE / "tritype" / "tritype.src").read_text().split("\n")
    out = []
    for entry in json.loads((HERE / "tritype" / "mutants.json").read_text()):
        mutated = list(lines)
        i = entry["line"] - 1
        if mutated[i].count(entry["find"]) != 1:
            raise ValueError(f"{entry['name']}: {entry['find']!r} not once on line {i + 1}")
        mutated[i] = mutated[i].replace(entry["find"], entry["replace"])
        out.append((entry["name"], "\n".join(mutated), entry))
    return out


def tritype_cases() -> list:
    refs = _load_references("tritype")
    return [
        Case(name, text, entry["inputs"], TRITYPE_ARGS, entry["seeded_line"], refs.get(name))
        for name, text, entry in tritype_mutants()
    ]


def mutant_cases(seed: int = DEFAULT_MUTANT_SEED) -> list:
    from mutants import generate

    refs = _load_references(f"mutants-seed{seed}") if seed == DEFAULT_MUTANT_SEED else {}
    return [
        Case(
            f"m{m.index:02d}-{m.kind}",
            m.source,
            m.inputs,
            MUTANT_ARGS,
            m.seeded_line,
            refs.get(f"m{m.index:02d}-{m.kind}"),
        )
        for m in generate(seed, MUTANT_COUNT)
    ]


def build(workload: str, mutant_seed: int = DEFAULT_MUTANT_SEED) -> list:
    if workload == "corpus":
        return corpus_cases()
    if workload == "tritype":
        return tritype_cases()
    if workload == "mutants":
        return mutant_cases(mutant_seed)
    raise ValueError(f"unknown workload {workload!r}")
