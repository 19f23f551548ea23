#!/usr/bin/env python3
"""Freeze the reference diagnoses of the tritype and mutants workloads.

Writes ``perfbench/reference/tritype.json`` and
``perfbench/reference/mutants-seed<DEFAULT_MUTANT_SEED>.json``: for every
case, the digest of its JSON report with the ``statistics`` block left
out.  The corpus workload uses ``corpus/expected/`` instead.  Run only
when a change means to move the diagnoses, and review the diff:

    python3 perfbench/freeze.py
"""

import json

import run
import workloads
from tracing import no_span


def freeze(name: str, cases: list) -> None:
    digests = {}
    for case in cases:
        out, _, _ = run.localize(case, workloads.explorer_config(case.args), no_span)
        digests[case.name] = workloads.report_digest(json.loads(out))
        print(f"{name}: {case.name} {digests[case.name][:12]}", flush=True)
    workloads.REFERENCE_DIR.mkdir(exist_ok=True)
    path = workloads.REFERENCE_DIR / f"{name}.json"
    path.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    freeze("tritype", workloads.tritype_cases())
    seed = workloads.DEFAULT_MUTANT_SEED
    freeze(f"mutants-seed{seed}", workloads.mutant_cases(seed))
