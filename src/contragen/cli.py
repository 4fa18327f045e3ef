"""Command-line front end for the generation/verification/explanation pipeline.

Subcommands:

  generate   build one construction plus its certified theorems (JSON report)
  enumerate  stream every permutation construction with closure counts
  verify     regenerate a JSON report and compare it, or re-check a DIMACS file
  explain    produce the ranked narrative report for a scenario
  export     emit DIMACS, TPTP, or JSON for a construction

``verify`` compares a report's text with the regenerated report's first
and reads the schema only when the two differ; what it regenerates stays
bounded by the size of the report.

Exit codes: 0 success, 1 validation or usage failure, 2 verification
failure. Without an external model endpoint every invocation is fully
deterministic; the report timestamp is the only field that varies.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from itertools import starmap, zip_longest
from pathlib import Path
from typing import Optional, Sequence

from . import __version__
from .core import (
    Signature,
    UnboundSymbolError,
    ValidationError,
    parse_literal,
    replace,
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
    CERT_FAILED,
    CERT_VERIFIED,
    DEFAULT_ENUMERATION_CAP,
    EnumerationCapExceededError,
    Theorem,
    build_ftsc,
    closure_counts,
    derive_theorems,
    enumerate_ftscs,
    permutation_by_rank,
    recover_permutation,
    total_literals,
)
from .report import Report, build_report
from .verifier import MusReport, certification_failures, check_mus, replay_theorems

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


def _count(text: str) -> int:
    """An int option's value that must not be negative."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must not be negative: {value}")
    return value


# Building the parser costs more than a small command's own work, and
# parsing leaves it unchanged, so one process builds it once.
@functools.cache
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
    enum.add_argument("--n-cap", type=_count, dest="n_cap",
                      help="refuse to enumerate above this many literals "
                      f"(default {DEFAULT_ENUMERATION_CAP})")
    enum.add_argument("--no-certify", action="store_true",
                      help="skip per-permutation certification")

    ver = sub.add_parser("verify", help="regenerate and compare a JSON report, or re-check DIMACS")
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
    scenario = None
    if scenario_path is not None:
        scenario = load_scenario(scenario_path)
        signatures = scenario.signatures()
        if not 0 <= args.instance < len(signatures):
            raise ValidationError(
                f"instance {args.instance} out of range; scenario grounds to "
                f"{len(signatures)} instance(s)"
            )
        signature = signatures[args.instance]
    elif inputs:
        if args.instance:
            raise ValidationError(
                f"instance {args.instance} needs a scenario file; literal input has one instance"
            )
        signature = validate_input([parse_literal(t) for t in inputs])
    else:
        raise ValidationError("no input literals and no scenario file given")
    if getattr(args, "permutation", 0):
        signature = permutation_by_rank(signature, args.permutation)
    return signature, scenario


def _certified_report(signature: Signature, scenario, *, replay=True, timestamp=None):
    """The report ``generate`` writes for the chain over the signature's
    order, and its certified theorems. A theorem its proof fails to replay
    is named on stderr with the step at fault. ``verify`` regenerates the
    report without replaying, with every theorem recorded as replayed."""
    ftsc = build_ftsc(signature)
    theorems = derive_theorems(ftsc)
    states = [CERT_FAILED if f else CERT_VERIFIED for f in certification_failures(theorems)]
    theorems = [Theorem(ftsc, t.removed_index, t.conclusion, s) for t, s in zip(theorems, states)]
    failures = replay_theorems(theorems) if replay else {}
    for position, (step, reason) in failures.items():
        where = "" if step is None else f"trace step {step}: "
        print(f"theorem {theorems[position].removed_index}: {where}{reason}", file=sys.stderr)
    replays = [position not in failures for position in range(len(theorems))]
    report = build_report(
        ftsc, theorems, scenario=scenario, replay_results=replays, timestamp=timestamp
    )
    return report, theorems


def _write(text: str, output: Optional[str]) -> None:
    if output:
        Path(output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _cmd_generate(args) -> int:
    signature, scenario = _signature_from_args(args)
    report, _ = _certified_report(signature, scenario.name if scenario else None)
    _write(report.to_json(), args.output)
    ok = all(t.certified == CERT_VERIFIED and t.trace_replayed for t in report.theorems)
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
    cap = DEFAULT_ENUMERATION_CAP if args.n_cap is None else args.n_cap
    try:
        ftscs = enumerate_ftscs(signature, cap=cap)
    except EnumerationCapExceededError:
        raise ValidationError(
            f"{n} literals mean {n}! permutations, above --n-cap {cap}; "
            f"raise it with --n-cap {n}"
        ) from None
    for ftsc in ftscs:
        total += 1
        order = recover_permutation(ftsc.clause_set)
        if order is not None:
            key = tuple(signature.index_of(s) for s in order)
            if previous is None or key > previous:
                distinct += 1
                previous = key
        status = ""
        if not args.no_certify:
            failure = next(filter(None, certification_failures(derive_theorems(ftsc))), None)
            certified += failure is None
            status = " certified" if failure is None else f" FAILED: {failure}"
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


def _print_mus(mus: MusReport) -> bool:
    print(f"unsatisfiable: {mus.is_unsatisfiable}")
    print(f"minimal (every deletion satisfiable): {mus.is_mus}")
    return mus.is_mus


# Not found at a path: one side of a comparison lacks the key or item.
_ABSENT = object()


def _first_difference(got, want, path: str):
    """(path, recorded, regenerated) where two JSON values first differ, or
    None. Equal JSON text means equal values of equal types (true is not 1,
    1 is not 1.0). Recursion follows ``want``, so it is as deep as a report."""
    if _ABSENT not in (got, want) and json.dumps(got) == json.dumps(want):
        return None
    if isinstance(got, dict) and isinstance(want, dict):
        keys = {**want, **got}
        pairs = [(got.get(k, _ABSENT), want.get(k, _ABSENT), f"{path}.{k}") for k in keys]
    elif isinstance(got, list) and isinstance(want, (list, tuple)):
        pairs = enumerate(zip_longest(got, want, fillvalue=_ABSENT))
        pairs = [(g, w, f"{path}[{i}]") for i, (g, w) in pairs]
    else:
        return path, got, want
    return next(filter(None, starmap(_first_difference, pairs)), None)


def _show(value) -> str:
    return "(absent)" if value is _ABSENT else json.dumps(value)


def _regenerated(data, size: int):
    """(admission, regenerated). The admission is the signature over
    ``metadata.permutation``, the ValidationError refusing it, or None when
    it is not a list. The regenerated value is the report ``generate`` would
    write for the recorded metadata, and its theorems; None when the
    permutation is not admitted, ``metadata.scenario`` not a string or null,
    ``metadata.timestamp`` not a string, or the chain longer in literals
    than ``size``, the length of the recorded text. So the work stays
    bounded by the size of the report."""
    meta = data.get("metadata") if isinstance(data, dict) else None
    permutation = meta.get("permutation") if isinstance(meta, dict) else None
    if not isinstance(permutation, list):
        return None, None
    try:  # parsing refuses a literal that is not a string
        signature = validate_input([parse_literal(s) for s in permutation])
    except ValidationError as exc:
        return exc, None
    scenario, timestamp = meta.get("scenario"), meta.get("timestamp")
    if not (
        (scenario is None or isinstance(scenario, str))
        and isinstance(timestamp, str)
        and total_literals(signature.size) <= size
    ):
        return signature, None
    return signature, _certified_report(signature, scenario, replay=False, timestamp=timestamp)


def _verify_report(text: str) -> bool:
    """Regenerate the report from its permutation; one line per differing group.

    A text equal to the regenerated report's, as ``generate`` writes it,
    passes with no more reading. Any other is read by the schema and
    compared with the same regenerated report, group by group. Either way
    a recorded scenario name, which a v1 report cannot be regenerated from,
    is named as not audited."""
    data = json.loads(text)
    signature, regenerated = _regenerated(data, len(text))
    if regenerated is not None and regenerated[0].to_json() == text:
        ok, unaudited = _print_verdict(*regenerated, {}), False
    else:
        ok, unaudited = _compare_report(data, signature, regenerated)
    # The schema holds by now, so the name is a string or null.
    if data["metadata"].get("scenario") is not None:
        print("metadata.scenario: not audited; a v1 report does not record its scenario")
    if unaudited:
        print("explanations, ranking: not audited; a v1 report does not record its scenario")
    return ok


def _compare_report(data, signature, regenerated) -> tuple[bool, bool]:
    """Read ``data`` by the schema and compare it with the regenerated report:
    (passed, whether the explanations and ranking were taken as recorded)."""
    recorded = Report.from_dict(data)
    # The schema holds, so the permutation is a list of strings.
    if isinstance(signature, ValidationError):
        print(f"metadata: metadata.permutation is not admissible: {signature}")
        return False, False
    # Every recorded literal takes at least 3 characters of text, so a chain
    # of the recorded size fits in it and was regenerated.
    size, chain = sum(map(len, recorded.clauses)), total_literals(signature.size)
    if size != chain:
        print(f"clauses: recorded {size} literals, the chain over {signature.size} "
              f"symbols has {chain}")
        return False, False
    expected = regenerated[0].to_dict()
    recorded_theorems = data["theorems"] + [_ABSENT] * len(expected["theorems"])
    # No trace is replayed here, so a recorded true or null stands; a theorem
    # with no record is regenerated unreplayed.
    for got, want in zip(recorded_theorems, expected["theorems"]):
        if got is _ABSENT or got.get("trace_replayed") is None:
            want["trace_replayed"] = None
    # A v1 report does not record its scenario, so an explain report's narrative
    # cannot be regenerated: it is taken as recorded and reported unaudited.
    unaudited = bool(recorded.explanations and recorded.ranking)
    if unaudited:
        expected.update(explanations=data["explanations"], ranking=data["ranking"])
    differences = {}
    for key in {**expected, **data}:
        found = _first_difference(data.get(key, _ABSENT), expected.get(key, _ABSENT), key)
        if found:
            differences[key] = found
    # A theorem whose record differs from the regenerated one reads failed.
    failed = set()
    if "theorems" in differences:
        pairs = enumerate(zip(recorded_theorems, expected["theorems"]))
        failed = {i for i, (got, want) in pairs if _first_difference(got, want, "")}
    return _print_verdict(*regenerated, differences, failed), unaudited


def _print_verdict(report, theorems, differences, failed=frozenset()) -> bool:
    """Print the clause set's and each theorem's verdict, then one line per
    differing group; True when nothing differs and every theorem holds."""
    # These lines speak of the recorded clauses, so they need them to match.
    if "clauses" not in differences:
        _print_mus(theorems[0].source.mus)
        for i, record in enumerate(report.theorems):
            print(f"theorem {record.removed_index}: "
                  f"{CERT_FAILED if i in failed else record.certified}")
    for key, (path, got, want) in differences.items():
        print(f"{key}: {path} recorded {_show(got)}, regenerated {_show(want)}")
    return not differences and all(t.certified == CERT_VERIFIED for t in theorems)


def _cmd_verify(args) -> int:
    path = Path(args.input)
    if not path.is_file():
        raise ValidationError(f"no such file: {args.input}")
    text = path.read_text(encoding="utf-8")
    if path.suffix.lower() != ".json":
        ok = _print_mus(check_mus(parse_dimacs(text)))
    else:
        # A report is a few levels deep, so only input nested about as deep
        # as the interpreter's recursion limit recurses this far.
        try:
            ok = _verify_report(text)
        except RecursionError:
            raise ValidationError(f"{args.input}: JSON nested too deeply to read") from None
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
    report, theorems = _certified_report(signature, scenario.name)
    if not all(t.certified == CERT_VERIFIED for t in theorems):
        print("certification failed; refusing to explain", file=sys.stderr)
        return EXIT_VERIFICATION
    if not all(t.trace_replayed for t in report.theorems):
        return EXIT_VERIFICATION  # each failed replay is named on stderr
    client = HttpModelClient(endpoint=args.model_endpoint)
    if client.endpoint:
        explanations = [explain_via_model(t, scenario, client) for t in theorems]
    else:
        explanations = [verbalize(t, scenario) for t in theorems]
    ranking = rank(explanations)
    report = replace(report, explanations=tuple(explanations), ranking=ranking)
    _write(_render_table(ranking) if args.table else report.to_json(), args.output)
    return EXIT_OK


def _cmd_export(args) -> int:
    if args.format == "json":
        return _cmd_generate(args)
    signature, scenario = _signature_from_args(args)
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
