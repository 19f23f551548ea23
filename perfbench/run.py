#!/usr/bin/env python3
"""Benchmark of faultlines localizations, end to end and layer by layer.

    python3 perfbench/run.py --workload corpus|tritype|mutants
                             [--seed N] [--seconds S] [--trace 0|1]
                             [--mutant-seed N]

Run from the root of a source checkout; the benchmark imports
``faultlines`` from ``src/`` and starts CLI children with that on their
``PYTHONPATH``.  One process runs a closed loop with a single client:
each localization starts after the previous one ends, cycling over the
workload's cases (in an order drawn from ``--seed``) in whole cycles
until ``--seconds`` have passed.

* ``corpus`` and ``tritype`` localize in-process and warm: parse,
  typecheck, CFG build, rename, ``run`` and JSON rendering.
* ``mutants`` starts one cold ``python -m faultlines.cli run`` per
  localization, as scripts call the tool.

Every report is validated against ``docs/report-schema.json``, compared
with the frozen reference where one exists, and searched for the seeded
line.  A localization fails if it raises, exits non-zero, overruns
``TIME_LIMIT_S``, or produces a report that fails either check; all but
an overrun also make the result line's ``correct`` false.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced cycles (in-process for every workload), prints the
per-layer metrics, and writes the spans to ``perfbench/_work/``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import re
import resource
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(SRC))

import workloads  # noqa: E402
from setup_probe import timed_setup  # noqa: E402
from tracing import Tracer, no_span  # noqa: E402

# Five times the slowest completing case at the parent commit (the corpus
# program bonus, up to about 2 s).  One generated mutant needs about 74 s
# and counts as an overrun; a lower limit leaves more of a mutants run to
# the other 39 programs, which steadies its percentiles.
TIME_LIMIT_S = 10.0
# No localization starts later than this after the benchmark starts, so a
# run ends within HARD_STOP_S + TIME_LIMIT_S (plus the traced run's CLI
# probes) even if every case overruns.
HARD_STOP_S = 100.0
SETUP_REPEATS = 7
TAIL_BEYOND = 10
TAIL_PERCENTILES = (99.9, 99, 95, 90, 75)
IMPORT_PROBES = 3
INTERPRETER_PROBES = 5
# Printed but left out of the result line: it is 0 on two workloads, so it
# has no relative spread; the line's attempted and failed counts carry it.
UNGATED = ("fail_share",)
# per-layer metrics that read 0 when a hooked function no longer exists
HOOKED_METRICS = {
    "propagate": ("explorer.propagate_ms", "explorer.propagate_calls", "explorer.useful_ratio"),
    "enumerate_on": ("mcs.self_ms",),
    "check": ("solver.check_ms",),
}


class Overrun(Exception):
    """The per-localization time limit passed."""


@dataclass
class Sample:
    case: workloads.Case
    seconds: float
    error: str = None  # why the localization failed, None if it did not
    hit: bool = False  # the report names the seeded line
    report: object = None  # traced samples only: the Report
    graph: object = None  # traced samples only: the DSA graph
    rss_mb: float = 0.0  # CLI only: the child's peak RSS
    loc_id: int = 0  # traced samples only: the localization id of its spans
    crashed: bool = False  # it raised or exited non-zero


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


# ---------------------------------------------------------------------------
# One localization
# ---------------------------------------------------------------------------


def localize(case: workloads.Case, config, span) -> tuple:
    """parse_program .. render_json in-process; returns (bytes, report, graph)."""
    from faultlines.cfg import build_cfg, to_dsa
    from faultlines.explorer import Counterexample, run
    from faultlines.frontend import parse_program, typecheck
    from faultlines.report import render_json

    with span("parse_program"):
        fn = parse_program(case.text)
    with span("typecheck"):
        diags = typecheck(fn)
    if diags:
        raise ValueError(f"ill-formed program: {diags[0]}")
    ce = Counterexample.of(case.inputs, fn.param_names)
    with span("build_cfg"):
        graph = build_cfg(fn)
    with span("to_dsa"):
        graph = to_dsa(graph)
    with span("run"):
        report = run(graph, ce, config)
    with span("render_json"):
        out = render_json(report)
    return out, report, graph


def _on_alarm(signum, frame):
    raise Overrun()


def attempt_in_process(case, config, span, checker, keep=False) -> Sample:
    """One localization under the time limit; `keep` retains report and graph."""
    start = time.perf_counter()
    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, TIME_LIMIT_S)
            out, report, graph = localize(case, config, span)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except Overrun:
        return Sample(case, time.perf_counter() - start, error="overran the time limit")
    except Exception as e:  # a localization that raises is a counted failure
        return Sample(case, time.perf_counter() - start,
                      error=f"raised {type(e).__name__}: {e}", crashed=True)
    seconds = time.perf_counter() - start
    error, hit = checker(case, out)
    if not keep:
        report = graph = None
    return Sample(case, seconds, error, hit, report, graph)


def cli_command(case, program: Path) -> list:
    cmd = [sys.executable, "-m", "faultlines.cli", "run", str(program)]
    for name, value in case.inputs.items():
        cmd += ["--in", f"{name}={value}"]
    return cmd + ["--format", "json", *case.args]


def attempt_cli(case, program: Path, env: dict, checker) -> Sample:
    out_path, err_path = WORK / "cli.out", WORK / "cli.err"
    killed = []
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cli_command(case, program), stdout=out, stderr=err, cwd=ROOT, env=env)

        def kill():
            killed.append(True)
            proc.kill()

        timer = threading.Timer(TIME_LIMIT_S, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
        seconds = time.perf_counter() - start
    rss_mb = usage.ru_maxrss / 1024.0
    if killed:
        return Sample(case, seconds, error="overran the time limit", rss_mb=rss_mb)
    if proc.returncode != 0:
        lines = err_path.read_text(errors="replace").strip().splitlines()
        last = lines[-1] if lines else ""
        return Sample(case, seconds, error=f"exit {proc.returncode}: {last}", crashed=True,
                      rss_mb=rss_mb)
    error, hit = checker(case, out_path.read_bytes())
    return Sample(case, seconds, error, hit, rss_mb=rss_mb)


def closed_loop(cases, attempt, seconds: float, deadline: float, between=None) -> tuple:
    """Whole cycles over `cases` until `seconds` pass; (samples, wall seconds).

    After each cycle but the last, `between(wall seconds so far)` runs if
    given; its own time is left out of the wall time.  After the
    perf_counter() time `deadline` only a first attempt starts.
    """
    samples, wall = [], 0.0
    while True:
        start = time.perf_counter()
        for case in cases:
            if samples and time.perf_counter() > deadline:
                return samples, wall + time.perf_counter() - start
            samples.append(attempt(case))
        wall += time.perf_counter() - start
        if wall >= seconds:
            return samples, wall
        if between is not None:
            between(wall)


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


def named_lines(doc: dict) -> set:
    lines = set()
    for diag in doc["diagnoses"]:
        lines.update(dev["line"] for dev in diag["deviations"])
        for mcs in diag["mcs"]:
            lines.update(m["line"] for m in mcs["members"])
    return lines


class Checker:
    """Checks a report once per distinct (case, output) and remembers the
    verdict, so repeated identical outputs cost one hash each.

    A verdict is (error or None, whether the seeded line is named); an
    error means the localization produced a wrong report.
    """

    def __init__(self, validator):
        self.validator = validator
        self.verdicts: dict = {}
        self.wrong = 0

    def __call__(self, case, output: bytes) -> tuple:
        key = (case.name, hashlib.sha256(output).digest())
        if key not in self.verdicts:
            self.verdicts[key] = verdict(case, output, self.validator)
        result = self.verdicts[key]
        self.wrong += result[0] is not None
        return result


def verdict(case, output: bytes, validator) -> tuple:
    try:
        doc = json.loads(output)
    except ValueError:
        return "report is not JSON", False
    errors = list(validator.iter_errors(doc))
    if errors:
        return f"report fails the schema: {errors[0].message}", False
    hit = case.seeded_line in named_lines(doc)
    if case.reference is not None and workloads.report_digest(doc) != case.reference:
        return "diagnoses differ from the reference", hit
    return None, hit


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def tail(values: list) -> tuple:
    """(value, percentile) at the highest of TAIL_PERCENTILES that has at
    least TAIL_BEYOND samples above it (nearest rank); the median if none."""
    ordered = sorted(values)
    n = len(ordered)
    pct = next((p for p in TAIL_PERCENTILES if n * (100 - p) / 100 >= TAIL_BEYOND), 50)
    return ordered[max(math.ceil(pct / 100 * n) - 1, 0)], pct


def setup_probes(workload: str, mutant_seed: int, count: int, env: dict) -> list:
    """Seconds of `count` set-ups, each in a fresh interpreter."""
    runs = []
    for _ in range(count):
        out = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(mutant_seed)],
            cwd=ROOT, env=env, capture_output=True, text=True, check=True, timeout=120,
        )
        runs.append(float(out.stdout.strip().splitlines()[-1]))
    return runs


def cli_import_ms(env: dict) -> float:
    """Median cumulative -X importtime of the faultlines modules the CLI loads."""
    totals = []
    for _ in range(IMPORT_PROBES):
        out = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import faultlines.cli"],
            cwd=ROOT, env=env, capture_output=True, text=True, check=True, timeout=120,
        )
        total = 0
        for line in out.stderr.splitlines():
            m = re.match(r"import time:\s*\d+\s*\|\s*(\d+)\s*\|( *)(\S+)", line)
            if m and len(m.group(2)) == 1 and m.group(3).startswith("faultlines"):
                total += int(m.group(1))
        totals.append(total / 1000.0)
    return statistics.median(totals)


def interpreter_ms(env: dict) -> float:
    walls = []
    for _ in range(INTERPRETER_PROBES):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], cwd=ROOT, env=env, check=True, timeout=120)
        walls.append((time.perf_counter() - start) * 1000.0)
    return statistics.median(walls)


def src_lines() -> int:
    return sum(len(p.read_bytes().splitlines()) for p in (SRC / "faultlines").rglob("*.py"))


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(samples, wall, setup_s, rss_mb) -> dict:
    ms = [s.seconds * 1000.0 for s in samples]
    failed = sum(1 for s in samples if s.error)
    tail_ms, _ = tail(ms)
    return {
        "localize_p50_ms": metric(statistics.median(ms), "ms"),
        "localize_tail_ms": metric(tail_ms, "ms"),
        "localizations_per_s": metric((len(samples) - failed) / wall, "1/s"),
        "fail_share": metric(failed / len(samples), "share"),
        "hit_rate": metric(sum(s.hit for s in samples) / len(samples), "share"),
        "peak_rss_mb": metric(rss_mb, "MB"),
        "setup_s": metric(setup_s, "s"),
    }


def per_layer(tracer: Tracer, traced, untraced, env) -> dict:
    """Per-layer metrics of the traced samples, per completed localization.

    Times are span totals over the completed localizations; counts come
    from their reports' statistics and graphs.
    """
    done = [s for s in traced if s.error is None]
    n = max(len(done), 1)
    ids = {s.loc_id for s in done}
    selfs = tracer.self_times(ids)
    totals = tracer.totals(ids)

    def ms_self(name):
        return selfs.get(name, 0.0) * 1000.0 / n

    def ms_total(name):
        return totals.get(name, (0.0, 0))[0] * 1000.0 / n

    def calls(name):
        return totals.get(name, (0.0, 0))[1]

    def stat(field):
        return sum(getattr(s.report.stats, field, 0) for s in done)

    from faultlines.cfg import iter_assignments

    p50 = statistics.median
    return {
        "solver.check_ms": metric(ms_total("check"), "ms"),
        "solver.checks": metric(stat("solver_checks") / n, "count"),
        "solver.propagations": metric(stat("solver_propagations") / n, "count"),
        "solver.assertions": metric(stat("solver_assertions") / n, "count"),
        "solver.propagations_per_check": metric(
            stat("solver_propagations") / max(stat("solver_checks"), 1), "count"),
        "mcs.self_ms": metric(ms_self("enumerate_on"), "ms"),
        "mcs.enumerations": metric(stat("mcs_enumerations") / n, "count"),
        "mcs.sets_found": metric(
            sum(len(d.mcs.mcs_list) for s in done for d in s.report.diagnoses) / n, "count"),
        "explorer.self_ms": metric(ms_self("run") + ms_total("propagate"), "ms"),
        "explorer.propagate_ms": metric(ms_total("propagate"), "ms"),
        "explorer.propagate_calls": metric(calls("propagate") / n, "count"),
        "explorer.paths_explored": metric(stat("paths_explored") / n, "count"),
        "explorer.rejected_unreached": metric(stat("rejected_unreached") / n, "count"),
        "explorer.rejected_marked": metric(stat("rejected_marked") / n, "count"),
        "explorer.rejected_prefix": metric(stat("rejected_prefix") / n, "count"),
        "explorer.useful_ratio": metric(stat("paths_explored") / max(calls("propagate"), 1), "ratio"),
        "frontend.parse_ms": metric(ms_self("parse_program"), "ms"),
        "frontend.typecheck_ms": metric(ms_self("typecheck"), "ms"),
        "cfg.build_ms": metric(ms_self("build_cfg"), "ms"),
        "cfg.dsa_ms": metric(ms_self("to_dsa"), "ms"),
        "cfg.decisions": metric(sum(len(s.graph.decision_order) for s in done) / n, "count"),
        "cfg.assignments": metric(sum(len(iter_assignments(s.graph)) for s in done) / n, "count"),
        "report.render_ms": metric(ms_self("render_json"), "ms"),
        "cli.import_ms": metric(cli_import_ms(env), "ms"),
        "cli.interpreter_ms": metric(interpreter_ms(env), "ms"),
        "code.src_lines": metric(src_lines(), "count"),
        "trace.run_ms": metric(ms_total("run"), "ms"),
        "trace.unaccounted_ms": metric(ms_self("localize"), "ms"),
        "trace.untraced_p50_ms": metric(p50([s.seconds for s in untraced]) * 1000.0, "ms"),
        "trace.overhead_ms": metric(
            (p50([s.seconds for s in traced]) - p50([s.seconds for s in untraced])) * 1000.0, "ms"),
    }


# ---------------------------------------------------------------------------
# Command line
# ---------------------------------------------------------------------------


def print_table(title: str, metrics: dict, notes: dict) -> None:
    print(title)
    for name, m in metrics.items():
        note = notes.get(name, "")
        print(f"  {name:32s} {m['value']:14.4f} {m['unit']:6s} {note}".rstrip())


def failure_lines(samples) -> list:
    counts: dict = {}
    for s in samples:
        if s.error:
            key = (s.case.name, s.error)
            counts[key] = counts.get(key, 0) + 1
    return [f"  {name}: {error} (x{n})" for (name, error), n in sorted(counts.items())]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1, help="orders each cycle of cases")
    parser.add_argument("--seconds", type=float, default=28.0, help="closed-loop run length")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--mutant-seed", type=int, default=workloads.DEFAULT_MUTANT_SEED,
                        help="generator seed of the mutants workload")
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + HARD_STOP_S

    if not (SRC / "faultlines" / "__init__.py").is_file() or not (ROOT / "corpus").is_dir():
        print(f"error: no faultlines source checkout at {ROOT}", file=sys.stderr)
        return 2
    try:
        import jsonschema
    except ImportError:
        print("error: the benchmark needs the jsonschema package", file=sys.stderr)
        return 2

    env = child_env()
    first_setup, cases = timed_setup(args.workload, args.mutant_seed)
    random.Random(args.seed).shuffle(cases)
    configs = {c.name: workloads.explorer_config(c.args) for c in cases}
    checker = Checker(jsonschema.Draft7Validator(
        json.loads((ROOT / "docs" / "report-schema.json").read_text())))
    signal.signal(signal.SIGALRM, _on_alarm)
    WORK.mkdir(exist_ok=True)

    def in_process(case):
        return attempt_in_process(case, configs[case.name], no_span, checker)

    header = f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}"
    if args.trace == 0:
        # Spread the set-up repeats over the run (one between cycles each
        # time another share of it has passed, the rest after it), so their
        # median does not rest on one moment of a machine whose speed drifts.
        setups = [first_setup]

        def setup_between(wall):
            if len(setups) < SETUP_REPEATS and wall >= len(setups) * args.seconds / SETUP_REPEATS:
                setups.extend(setup_probes(args.workload, args.mutant_seed, 1, env))

        if args.workload == "mutants":
            programs = {}
            for case in cases:
                programs[case.name] = WORK / f"{case.name}.src"
                programs[case.name].write_text(case.text)
            samples, wall = closed_loop(
                cases, lambda case: attempt_cli(case, programs[case.name], env, checker),
                args.seconds, deadline, setup_between)
            rss_mb = max(s.rss_mb for s in samples)
        else:
            samples, wall = closed_loop(cases, in_process, args.seconds, deadline, setup_between)
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        setups += setup_probes(args.workload, args.mutant_seed, SETUP_REPEATS - len(setups), env)
        metrics = end_to_end(samples, wall, statistics.median(setups), rss_mb)
        _, pct = tail([s.seconds for s in samples])
        failed = sum(1 for s in samples if s.error)
        notes = {
            "localize_p50_ms": f"n={len(samples)}",
            "localize_tail_ms": f"p{pct:g} of n={len(samples)}",
            "localizations_per_s": f"{len(samples) - failed} completed in {wall:.2f} s",
            "fail_share": f"{failed} of {len(samples)}",
            "hit_rate": f"{sum(s.hit for s in samples)} of {len(samples)}",
            "setup_s": f"median of {SETUP_REPEATS}",
        }
        print_table(header, metrics, notes)
        metrics = {name: m for name, m in metrics.items() if name not in UNGATED}
    else:
        # Alternate untraced and traced cycles, so both halves see the same
        # machine: its speed drifts by tens of percent within a minute.
        tracer = Tracer()

        def traced_attempt(case):
            tracer.loc_id += 1
            with tracer.span("localize"):
                sample = attempt_in_process(case, configs[case.name], tracer.span, checker, keep=True)
            sample.loc_id = tracer.loc_id
            return sample

        untraced, traced = [], []
        start = time.perf_counter()
        while not untraced or (time.perf_counter() - start < args.seconds
                               and time.perf_counter() < deadline):
            untraced += closed_loop(cases, in_process, 0, deadline)[0]
            tracer.install()
            try:
                traced += closed_loop(cases, traced_attempt, 0, deadline)[0]
            finally:
                tracer.uninstall()
        samples = untraced + traced
        metrics = per_layer(tracer, traced, untraced, env)
        trace_path = WORK / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(trace_path)
        failed = sum(1 for s in samples if s.error)
        notes = {name: "absent" for span in tracer.absent for name in HOOKED_METRICS[span]}
        print_table(header + f" traced={len(traced)} untraced={len(untraced)} spans={trace_path.name}",
                    metrics, notes)
    lines = failure_lines(samples)
    print("failures:" if lines else "failures: none")
    for line in lines:
        print(line)
    correct = checker.wrong == 0 and not any(s.crashed for s in samples)
    print(json.dumps({"correct": correct, "attempted": len(samples),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
