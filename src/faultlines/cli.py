"""Command-line entry point.

    faultlines run PROGRAM [--in NAME=INT ...] [--ce-file FILE]
                   [--bcond N] [--bmcs N] [--kmax N] [--domain LO:HI]
                   [--format text|json] [--dot FILE]

`--domain -8:8` and `--domain=-8:8` are the same: a `LO:HI` value after
`--domain` is joined to it before parsing, so a negative `LO` is not
taken for an option.

Exit codes: 0 report produced; 1 file/parse/typecheck failure, a
program nested too deeply to analyse, one whose path is too long for
the solver's search, or a report that cannot be written (diagnostics on
stderr); 2 usage
error, including a run whose inputs or computed values leave the
`--domain` box; 3 not a counterexample, as `explorer.run` decides: the
inputs violate `requires` (checked before the box), or their path
satisfies `ensures`.  `--dot` writes its file before localization, so
also on exits 2 and 3.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

from .cfg import build_cfg, render_dot
from .explorer import (
    Counterexample,
    ExplorerConfig,
    ExplorerError,
    NothingToLocalizeError,
    OverflowAbandonedError,
    run,
)
from .frontend import FrontendError, parse_program, typecheck
from .mcs import McsConfig
from .records import shown
from .report import render_json, render_text
from .solver import DomainConfig

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_USAGE = 2
EXIT_NOT_A_COUNTEREXAMPLE = 3


def _positive(text: str) -> int:
    v = int(text)
    if v < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return v


def _non_negative(text: str) -> int:
    v = int(text)
    if v < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return v


def _domain(text: str) -> DomainConfig:
    try:
        lo_text, hi_text = text.split(":", 1)
        dom = DomainConfig(int(lo_text), int(hi_text))
    except ValueError as e:
        raise argparse.ArgumentTypeError(f"expected LO:HI with LO <= HI ({e})")
    return dom


def _build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="faultlines",
        description="Constraint-based fault localization from a failing input.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="localize faults in an annotated program")
    runp.add_argument("program", help="path to the annotated source file")
    runp.add_argument(
        "--in",
        dest="inputs",
        action="append",
        default=[],
        metavar="NAME=INT",
        help="one input binding of the counterexample (repeatable)",
    )
    runp.add_argument("--ce-file", help="JSON object file with the counterexample")
    runp.add_argument("--bcond", type=_non_negative, default=2, help="max deviated conditions")
    runp.add_argument("--bmcs", type=_positive, default=3, help="max MCSs per path")
    runp.add_argument("--kmax", type=_positive, default=2, help="max MCS cardinality")
    runp.add_argument(
        "--domain",
        type=_domain,
        default=DomainConfig(),
        metavar="LO:HI",
        help="variable bounds, e.g. -128:127",
    )
    runp.add_argument("--format", choices=("text", "json"), default="text")
    runp.add_argument("--dot", help="also dump the DSA control-flow graph to this file")
    return parser


_DOMAIN_VALUE = re.compile(r"-?\d+:-?\d+")


def _join_domain(argv) -> list:
    """Rewrite `--domain LO:HI` as `--domain=LO:HI`.

    argparse takes a separate value that starts with a dash, such as
    `-128:127`, for an option and rejects `--domain` as missing its value.
    """
    out = []
    for arg in argv:
        if out and out[-1] == "--domain" and _DOMAIN_VALUE.fullmatch(arg):
            out[-1] = f"--domain={arg}"
        else:
            out.append(arg)
    return out


def _explorer_config(args) -> ExplorerConfig:
    return ExplorerConfig(
        b_cond=args.bcond,
        mcs=McsConfig(b_mcs=args.bmcs, k_max=args.kmax),
        dom=args.domain,
    )


def config_from_args(flags) -> ExplorerConfig:
    """The ExplorerConfig that `faultlines run` builds from these flags.

    Flags are validated as on the command line: a bad value raises
    SystemExit with the usage exit code.
    """
    return _explorer_config(_build_arg_parser().parse_args(["run", "-", *_join_domain(flags)]))


def _bindings(pairs, parser: argparse.ArgumentParser, source: str) -> dict:
    out = {}
    for name, value in pairs:
        if name in out:
            parser.error(f"{source} binds {shown(name)} twice")
        out[name] = value
    return out


def _load_counterexample(args, parser: argparse.ArgumentParser) -> dict:
    if args.inputs and args.ce_file:
        parser.error("use either --in bindings or --ce-file, not both")
    if args.ce_file:
        try:
            with open(args.ce_file, "r", encoding="utf-8") as fh:
                data = json.load(
                    fh, object_pairs_hook=lambda p: _bindings(p, parser, "counterexample file")
                )
        except (OSError, UnicodeDecodeError) as e:
            parser.error(f"cannot read counterexample file: {e}")
        except json.JSONDecodeError as e:
            parser.error(f"counterexample file is not valid JSON: {e}")
        except ValueError:
            # json refuses an integer over Python's 4,300-digit conversion limit
            parser.error("counterexample file holds an integer with too many digits")
        except RecursionError:
            parser.error("counterexample file nests too deeply")
        if not isinstance(data, dict) or not all(
            isinstance(v, int) and not isinstance(v, bool) for v in data.values()
        ):
            parser.error("counterexample file must be a JSON object of integers")
        return data
    out = []
    for binding in args.inputs:
        name, sep, value = binding.partition("=")
        if not sep or not name:
            parser.error(f"--in expects NAME=INT, got {shown(binding)}")
        try:
            out.append((name, int(value)))
        except ValueError:
            if re.fullmatch(r"\s*[+-]?\d+\s*", value):
                # an integer over Python's 4,300-digit conversion limit
                parser.error(f"--in value for {shown(name)} has too many digits")
            parser.error(f"--in value for {shown(name)} is not an integer: {shown(value)}")
    return _bindings(out, parser, "--in")


def main(argv=None) -> int:
    parser = _build_arg_parser()
    args = parser.parse_args(_join_domain(sys.argv[1:] if argv is None else argv))

    try:
        with open(args.program, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as e:
        print(f"error: cannot read program: {e}", file=sys.stderr)
        return EXIT_INPUT_ERROR

    try:
        fn = parse_program(text)
        diags = typecheck(fn)
        graph = None if diags else build_cfg(fn)
    except FrontendError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except RecursionError:
        # the parser, the typechecker and the graph builder recurse once
        # per nesting level of the program
        print("error: program nests too deeply to analyse", file=sys.stderr)
        return EXIT_INPUT_ERROR
    if diags:
        for d in diags:
            print(f"error: {d}", file=sys.stderr)
        return EXIT_INPUT_ERROR

    ce_map = _load_counterexample(args, parser)
    try:
        ce = Counterexample.of(ce_map, fn.param_names)
    except ExplorerError as e:
        parser.error(str(e))

    if args.dot:
        try:
            with open(args.dot, "w", encoding="utf-8") as fh:
                fh.write(render_dot(graph))
        except OSError as e:
            print(f"error: cannot write DOT file: {e}", file=sys.stderr)
            return EXIT_INPUT_ERROR

    try:
        report = run(graph, ce, _explorer_config(args))
    except NothingToLocalizeError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_NOT_A_COUNTEREXAMPLE
    except OverflowAbandonedError as e:
        print(f"error: {e}; widen --domain", file=sys.stderr)
        return EXIT_USAGE
    except RecursionError:
        # the solver's search recurses once per variable it decides
        print("error: program path is too long for the solver's search", file=sys.stderr)
        return EXIT_INPUT_ERROR

    try:
        if args.format == "json":
            sys.stdout.buffer.write(render_json(report))
        else:
            sys.stdout.write(render_text(report))
        sys.stdout.flush()
    except OSError as e:
        print(f"error: cannot write report: {e}", file=sys.stderr)
        # drop the bytes left in stdout's buffer, or flushing them again at
        # interpreter exit prints a second error and exits 120
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_INPUT_ERROR
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
