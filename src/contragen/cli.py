"""Command-line front end for the generation/verification/explanation pipeline.

Subcommands:

  generate   build one construction plus its certified theorems (JSON report)
  enumerate  stream every permutation construction with closure counts
  verify     re-check a JSON report or a DIMACS file from scratch
  explain    produce the ranked narrative report for a scenario
  export     emit DIMACS, TPTP, or JSON for a construction

Exit codes: 0 success, 1 validation or usage failure, 2 verification
failure. Without an external model endpoint every invocation is fully
deterministic; the report timestamp is the only field that varies.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

from . import __version__
from .core import (
    Signature,
    UnboundSymbolError,
    ValidationError,
    parse_literal,
    validate_input,
)
from .explain import (
    HttpModelClient,
    Scenario,
    explain_via_model,
    load_scenario,
    rank,
    verbalize,
)
from .formats import emit_dimacs, emit_tptp, parse_dimacs
from .generator import (
    CERT_VERIFIED,
    DEFAULT_ENUMERATION_CAP,
    build_ftsc,
    closure_counts,
    derive_theorems,
    enumerate_ftscs,
    permutation_by_rank,
    recover_permutation,
)
from .report import (
    Report,
    build_report,
    clause_set_from_report,
    theorems_from_report,
)
from .verifier import check_mus, check_theorem, replay_trace

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_VERIFICATION = 2


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 by default; 2 is reserved for
    # verification failures here, so usage errors become exit 1.
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="contragen", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"contragen {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_input_options(p, with_permutation=True):
        p.add_argument("inputs", nargs="*", help="literal symbols, or a scenario file path")
        p.add_argument("--instance", type=int, default=0,
                       help="ground instance index for multi-instance scenarios (default 0)")
        if with_permutation:
            p.add_argument("--permutation", type=int, default=0, metavar="IDX",
                           help="lexicographic permutation rank to build (default 0: input order)")

    gen = sub.add_parser("generate", help="build one construction and certify its theorems")
    add_input_options(gen)
    gen.add_argument("--output", help="write the JSON report here instead of stdout")

    enum = sub.add_parser("enumerate", help="stream all permutation constructions with counts")
    add_input_options(enum, with_permutation=False)
    enum.add_argument("--n-cap", type=int, default=DEFAULT_ENUMERATION_CAP, dest="n_cap",
                      help="refuse to enumerate above this many literals "
                      f"(default {DEFAULT_ENUMERATION_CAP})")
    enum.add_argument("--no-certify", action="store_true",
                      help="skip per-permutation certification")

    ver = sub.add_parser("verify", help="re-check a JSON report or DIMACS file")
    ver.add_argument("input", help="path to a .json report or DIMACS .cnf file")

    exp = sub.add_parser("explain", help="ranked narrative report for a scenario")
    exp.add_argument("scenario", help="scenario YAML file")
    exp.add_argument("--instance", type=int, default=0)
    exp.add_argument("--permutation", type=int, default=0, metavar="IDX")
    exp.add_argument("--model-endpoint", help="external model endpoint URL")
    exp.add_argument("--table", action="store_true", help="render a plain-text table")
    exp.add_argument("--output", help="write the JSON report here instead of stdout")

    exo = sub.add_parser("export", help="emit DIMACS, TPTP, or JSON")
    add_input_options(exo)
    exo.add_argument("--format", required=True, choices=("dimacs", "tptp", "json"))
    exo.add_argument("--tptp-mode", choices=("cnf", "fof"), default="cnf")
    exo.add_argument("--output", help="write here instead of stdout")
    return parser


def _signature_from_args(args) -> tuple[Signature, Optional[Scenario]]:
    # ``explain`` takes a scenario path; the others take literals or one path.
    scenario_path = getattr(args, "scenario", None)
    inputs = getattr(args, "inputs", [])
    if len(inputs) == 1 and Path(inputs[0]).is_file():
        scenario_path = inputs[0]
    if scenario_path is not None:
        scenario = load_scenario(scenario_path)
        signatures = scenario.signatures()
        instance = args.instance
        if not 0 <= instance < len(signatures):
            raise ValidationError(
                f"instance {instance} out of range; scenario grounds to "
                f"{len(signatures)} instance(s)"
            )
        return signatures[instance], scenario
    if not inputs:
        raise ValidationError("no input literals and no scenario file given")
    return validate_input([parse_literal(t) for t in inputs]), None


def _build_and_certify(signature: Signature, permutation_rank: int):
    if permutation_rank:
        signature = permutation_by_rank(signature, permutation_rank)
    ftsc = build_ftsc(signature)
    theorems = [check_theorem(t) for t in derive_theorems(ftsc)]
    replays = [
        bool(replay_trace(t.trace, ftsc.premises_without(t.removed_index)))
        for t in theorems
    ]
    return ftsc, theorems, replays


def _write(text: str, output: Optional[str]) -> None:
    if output:
        Path(output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _cmd_generate(args) -> int:
    signature, scenario = _signature_from_args(args)
    ftsc, theorems, replays = _build_and_certify(signature, args.permutation)
    report = build_report(
        ftsc,
        theorems,
        scenario=scenario.name if scenario else None,
        replay_results=replays,
    )
    _write(report.to_json(), args.output)
    ok = all(t.certified == CERT_VERIFIED for t in theorems) and all(replays)
    return EXIT_OK if ok else EXIT_VERIFICATION


def _cmd_enumerate(args) -> int:
    signature, _ = _signature_from_args(args)
    n = signature.size
    # Distinctness in O(n) memory: the orders recovered from the sets'
    # contents must rise strictly in lexicographic order, as generated.
    previous: Optional[tuple[int, ...]] = None
    distinct = 0
    certified = 0
    total = 0
    for ftsc in enumerate_ftscs(signature, cap=args.n_cap):
        total += 1
        order = recover_permutation(ftsc.clause_set)
        if order is not None:
            key = tuple(signature.index_of(s) for s in order)
            if previous is None or key > previous:
                distinct += 1
                previous = key
        status = ""
        if not args.no_certify:
            theorems = [check_theorem(t) for t in derive_theorems(ftsc)]
            good = all(t.certified == CERT_VERIFIED for t in theorems)
            certified += good
            status = " certified" if good else " FAILED"
        print(f"perm {total - 1}: ({', '.join(ftsc.permutation)}){status}")
    sets_expected, entailments = closure_counts(n)
    print(
        f"permutations={total} expected={sets_expected} distinct={distinct} "
        f"entailments={entailments}"
        + ("" if args.no_certify else f" certified={certified}/{total}")
    )
    ok = total == sets_expected == distinct and (
        args.no_certify or certified == total
    )
    return EXIT_OK if ok else EXIT_VERIFICATION


def _verify_clause_set(clause_set) -> bool:
    mus = check_mus(clause_set)
    print(f"unsatisfiable: {mus.is_unsatisfiable}")
    print(f"minimal (every deletion satisfiable): {mus.is_mus}")
    return mus.is_mus


def _cmd_verify(args) -> int:
    path = Path(args.input)
    if not path.is_file():
        raise ValidationError(f"no such file: {args.input}")
    text = path.read_text(encoding="utf-8")
    if path.suffix != ".json":
        ok = _verify_clause_set(parse_dimacs(text))
    else:
        report = Report.from_json(text)
        clause_set = clause_set_from_report(report)
        ok = _verify_clause_set(clause_set)
        symbols = [s for s, _ in report.signature]
        if symbols != list(report.permutation) or len(symbols) != report.n:
            print(
                f"signature: expected n={report.n} symbols in permutation order "
                f"{list(report.permutation)}, got {symbols}"
            )
            ok = False
        arities = zip(report.signature, clause_set.signature.arities)
        wrong = [f"{s!r} (recorded {a}, symbol gives {d})" for (s, a), d in arities if a != d]
        if wrong:
            print(f"signature: arity differs from the symbol's for {', '.join(wrong)}")
            ok = False
        # n+1 clauses and one theorem per removal index 1..n+1. The clause
        # count is compared first, so the range is bounded by the input.
        n, indices = report.n, sorted(t.removed_index for t in report.theorems)
        if len(report.clauses) != n + 1 or indices != list(range(1, n + 2)):
            print(
                f"theorem coverage: expected {n + 1} clauses and one theorem per "
                f"removed_index 1..{n + 1}, got {len(report.clauses)} clauses "
                f"and removed_index {indices}"
            )
            ok = False
        else:
            for theorem in theorems_from_report(report, clause_set):
                checked = check_theorem(theorem)
                ok = ok and checked.certified == CERT_VERIFIED
                print(f"theorem {theorem.removed_index}: {checked.certified}")
        # Last, so a report that fails above prints no second complaint:
        # clause t must hold the literals of chain clause t over the
        # permutation, in any order (there is no chain over n = 0).
        if ok:
            chain = (
                build_ftsc(clause_set.signature).clause_set.int_clauses() if n else ()
            )
            if [set(c) for c in clause_set.int_clauses()] != [set(c) for c in chain]:
                print(
                    "chain: clauses are not the triangular chain over "
                    f"permutation {list(report.permutation)}"
                )
                ok = False
        # The chain's trace over index i has n+2 steps, n for i = n+1, so
        # the recorded counts are checked by arithmetic; a replay recorded
        # as neither true nor null (not run) fails.
        if ok:
            bad = [
                t.removed_index
                for t in report.theorems
                if t.trace_steps != (n if t.removed_index == n + 1 else n + 2)
                or t.trace_replayed not in (True, None)
            ]
            if bad:
                print(
                    f"trace: theorems {bad} record a failed replay or a step "
                    "count other than the chain trace's"
                )
                ok = False
    print("verification " + ("passed" if ok else "FAILED"))
    return EXIT_OK if ok else EXIT_VERIFICATION


def _render_table(ranking) -> str:
    header = f"{'rank':<5}{'clause':<8}{'priority':<10}{'score':<7}remediation"
    rows = [header, "-" * len(header)]
    for position, entry in enumerate(ranking.entries, start=1):
        rows.append(
            f"{position:<5}{entry.explanation.removed_index:<8}"
            f"{entry.priority:<10}{entry.score:<7.2f}"
            f"{entry.explanation.remediation}"
        )
    return "\n".join(rows) + "\n"


def _cmd_explain(args) -> int:
    signature, scenario = _signature_from_args(args)
    ftsc, theorems, replays = _build_and_certify(signature, args.permutation)
    if not all(t.certified == CERT_VERIFIED for t in theorems):
        print("certification failed; refusing to explain", file=sys.stderr)
        return EXIT_VERIFICATION
    client = HttpModelClient(endpoint=args.model_endpoint)
    if client.endpoint:
        explanations = [explain_via_model(t, scenario, client) for t in theorems]
    else:
        explanations = [verbalize(t, scenario) for t in theorems]
    ranking = rank(explanations)
    report = build_report(
        ftsc,
        theorems,
        scenario=scenario.name,
        explanations=explanations,
        ranking=ranking,
        replay_results=replays,
    )
    if args.table:
        _write(_render_table(ranking), args.output)
    else:
        _write(report.to_json(), args.output)
    return EXIT_OK


def _cmd_export(args) -> int:
    if args.format == "json":
        return _cmd_generate(args)
    signature, scenario = _signature_from_args(args)
    if args.permutation:
        signature = permutation_by_rank(signature, args.permutation)
    ftsc = build_ftsc(signature)
    if args.format == "dimacs":
        text = emit_dimacs(ftsc.clause_set)
    else:
        theorems = derive_theorems(ftsc)
        text = emit_tptp(ftsc, theorems, mode=args.tptp_mode, scenario=scenario)
    _write(text, args.output)
    return EXIT_OK


_COMMANDS = {
    "generate": _cmd_generate,
    "enumerate": _cmd_enumerate,
    "verify": _cmd_verify,
    "explain": _cmd_explain,
    "export": _cmd_export,
}


def run_cli(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    try:
        return _COMMANDS[args.command](args)
    # Input errors are ValueErrors (validation, parsing, JSON, schema), an
    # unbound symbol or an index out of range. Any other LookupError, such
    # as a KeyError, is a defect and keeps its traceback.
    except (ValueError, UnboundSymbolError, IndexError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
