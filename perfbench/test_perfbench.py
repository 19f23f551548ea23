"""Checks of the benchmark's own inputs and output checks.

    python3 -m pytest perfbench -q
"""

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import mutants  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from faultlines.frontend import interpret, parse_program, typecheck  # noqa: E402
from tracing import Tracer, no_span  # noqa: E402

SEEDS = (1, 2, 3)


@pytest.fixture(scope="module", params=SEEDS)
def generated(request):
    return mutants.generate(request.param, 12)


def test_same_seed_gives_identical_programs():
    first = mutants.generate(5, 8)
    again = mutants.generate(5, 8)
    assert [(m.original, m.source, m.inputs) for m in first] == [
        (m.original, m.source, m.inputs) for m in again
    ]
    assert [m.source for m in first] != [m.source for m in mutants.generate(6, 8)]


def test_unmutated_programs_satisfy_derived_ensures_on_the_box(generated):
    for m in generated:
        fn = parse_program(m.original)
        assert typecheck(fn) == []
        for inputs in mutants.box_inputs(list(fn.param_names)):
            assert interpret(fn, inputs).postcondition_holds, (m.original, inputs)


def test_generated_failing_inputs_fail(generated):
    for m in generated:
        fn = parse_program(m.source)
        assert typecheck(fn) == []
        assert not interpret(fn, m.inputs).postcondition_holds, (m.source, m.inputs)
        assert m.source.count("\n") == m.original.count("\n")
        assert m.kind in ("constant", "operator", "dropped")


def test_tritype_spec_holds_and_mutant_inputs_fail():
    original = parse_program((HERE / "tritype" / "tritype.src").read_text())
    assert typecheck(original) == []
    for inputs in mutants.box_inputs(["i", "j", "k"]):
        outcome = interpret(original, inputs)
        assert not outcome.precondition_holds or outcome.postcondition_holds, inputs
    names = set()
    for name, text, entry in workloads.tritype_mutants():
        fn = parse_program(text)
        assert typecheck(fn) == []
        outcome = interpret(fn, entry["inputs"])
        assert outcome.precondition_holds and not outcome.postcondition_holds, name
        names.add(entry["kind"])
    assert names == {"constant", "operator", "result", "dropped"}


def test_references_cover_every_case():
    for cases in (workloads.tritype_cases(), workloads.mutant_cases()):
        assert all(c.reference for c in cases)
    assert not any(c.reference for c in workloads.mutant_cases(2)[:3])


def test_verdict_flags_schema_reference_and_hit():
    import jsonschema

    validator = jsonschema.Draft7Validator(
        json.loads((HERE.parent / "docs" / "report-schema.json").read_text())
    )
    case = next(c for c in workloads.corpus_cases() if c.name == "twiceplusone")
    out, _, _ = run.localize(case, workloads.explorer_config(case.args), no_span)
    assert run.verdict(case, out, validator) == (None, True)
    elsewhere = dataclasses.replace(case, seeded_line=1)
    assert run.verdict(elsewhere, out, validator) == (None, False)
    doc = json.loads(out)
    doc["statistics"]["solver_checks"] += 1
    assert run.verdict(case, json.dumps(doc).encode(), validator) == (None, True)
    doc["diagnoses"] = doc["diagnoses"][:0]
    assert run.verdict(case, json.dumps(doc).encode(), validator)[0] == (
        "diagnoses differ from the reference"
    )
    del doc["statistics"]
    assert "schema" in run.verdict(case, json.dumps(doc).encode(), validator)[0]


def test_crash_is_a_failure_and_an_overrun_is_not_a_crash(monkeypatch):
    case = next(c for c in workloads.corpus_cases() if c.name == "twiceplusone")
    config = workloads.explorer_config(case.args)
    broken = dataclasses.replace(case, text=case.text.replace("ensures", "ensure", 1))
    sample = run.attempt_in_process(broken, config, no_span, checker=None)
    assert sample.error.startswith("raised") and sample.crashed

    def overrun(*args):
        raise run.Overrun()

    monkeypatch.setattr(run, "localize", overrun)
    sample = run.attempt_in_process(case, config, no_span, checker=None)
    assert sample.error == "overran the time limit" and not sample.crashed


def test_config_comes_from_the_cli_parser():
    config = workloads.explorer_config(("--bmcs", "1", "--domain=-4:5"))
    assert (config.b_cond, config.mcs.b_mcs, config.mcs.k_max) == (2, 1, 2)
    assert (config.dom.lo, config.dom.hi) == (-4, 5)
    with pytest.raises(SystemExit):
        workloads.explorer_config(("--domain=5:-4",))


def test_tail_has_ten_samples_beyond():
    assert run.tail(list(range(1, 41))) == (30, 75)
    assert run.tail(list(range(1, 1001))) == (990, 99)
    assert run.tail(list(range(1, 11))) == (5, 50)


def test_traced_self_times_add_up_to_the_run_span():
    case = next(c for c in workloads.corpus_cases() if c.name == "capatten")
    tracer = Tracer()
    tracer.install()
    try:
        tracer.loc_id = 1
        with tracer.span("localize"):
            run.localize(case, workloads.explorer_config(case.args), tracer.span)
    finally:
        tracer.uninstall()
    assert tracer.absent == []
    selfs, totals = tracer.self_times({1}), tracer.totals({1})
    layers = selfs["run"] + selfs["propagate"] + selfs["enumerate_on"] + selfs["check"]
    assert layers == pytest.approx(totals["run"][0])
    assert totals["check"][0] > 0.5 * totals["run"][0]


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_names_every_benchmark_metric(trace, key):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "tritype", "--seed", "4",
         "--seconds", "0.5", "--trace", str(trace)],
        capture_output=True, text=True, check=True, timeout=170,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert {m["name"]: m["unit"] for m in spec[key]} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }


def test_missing_hook_is_reported_absent(monkeypatch):
    import tracing

    extra = (("faultlines.nowhere", "f", "nowhere"), ("faultlines.explorer", "gone", "gone"))
    monkeypatch.setattr(tracing, "HOOKS", tracing.HOOKS + extra)
    tracer = Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["nowhere", "gone"]
