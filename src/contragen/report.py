"""JSON report schema: the canonical audit artifact of a pipeline run.

A report captures one construction end to end: metadata, the clause list,
every theorem with its conclusion and certification status, and (when the
interpretation stage ran) explanations and the ranked summary. Reports
round-trip losslessly through JSON; the timestamp is the only field that
varies between otherwise identical runs and is excluded from golden-file
comparisons. ``Report.to_json`` writes the text of ``json.dumps(...,
indent=2)`` byte for byte: one template per signature entry and theorem
record, literal texts encoded once per call, ``_indented`` for the rest.
``verify`` compares that text before it reads the schema. See
docs/report_schema.md.
"""

from __future__ import annotations

import json
import time
from typing import Optional, Sequence

from . import __version__
from .core import (
    Literal, Record, SchemaViolationError, Signature, fields, parse_literal, replace, require,
)
from .explain import POLICIES, PRIORITIES, PROVENANCES, Explanation, RankedEntry, RankedReport
from .generator import Ftsc, Theorem, conclusion_for, trace_length

SCHEMA_VERSION = 1
TOOL_NAME = "contragen"


def _fields_of(record) -> dict:
    """A record's fields by name, in order, shallow: the values themselves."""
    return {name: getattr(record, name) for name in fields(record)}


class TheoremRecord(Record):
    __slots__ = _fields = (
        "removed_index", "conclusion", "certified", "trace_steps", "trace_replayed"
    )
    _defaults = {"trace_replayed": None}


class Report(Record):
    __slots__ = _fields = (
        "n", "permutation", "signature", "clauses", "theorems", "scenario", "explanations",
        "ranking", "timestamp", "tool", "version", "schema_version",
    )
    _defaults = {
        "scenario": None, "explanations": (), "ranking": None, "timestamp": "",
        "tool": TOOL_NAME, "version": __version__, "schema_version": SCHEMA_VERSION,
    }

    def to_dict(self) -> dict:
        data: dict = {
            "schema_version": self.schema_version,
            "metadata": {
                "tool": self.tool,
                "version": self.version,
                "timestamp": self.timestamp,
                "scenario": self.scenario,
                "n": self.n,
                "permutation": list(self.permutation),
            },
            "signature": [
                {"symbol": s, "arity": a} for s, a in self.signature
            ],
            "clauses": [list(c) for c in self.clauses],
            # Records are written field by field in declaration order, so
            # a record field is a report key; json writes tuples as lists.
            "theorems": [_fields_of(t) for t in self.theorems],
            "explanations": [_fields_of(e) for e in self.explanations],
            "ranking": None,
        }
        if self.ranking is not None:
            data["ranking"] = {
                "policy": self.ranking.policy,
                "entries": [
                    {
                        "scenario": entry.explanation.scenario,
                        "removed_index": entry.explanation.removed_index,
                        "priority": entry.priority,
                        "score": entry.score,
                        "remediation": entry.explanation.remediation,
                    }
                    for entry in self.ranking.entries
                ],
            }
        return data

    def to_json(self) -> str:
        """``json.dumps(self.to_dict(), indent=2)`` and a line break. A literal text not
        listed, or an int field of another type, sends the report through ``_indented``."""
        deep = "\n      "  # a record's fields; an f-string expression holds no backslash
        try:
            encoded = {t: _string(t) for s, _ in self.signature for t in (s, "~" + s)}
            written = {
                "signature": _block([
                    f'{{\n      "symbol": {encoded[s]},\n      "arity": {_int(a)}\n    }}'
                    for s, a in self.signature
                ], "\n  "),
                "clauses": _block(
                    [_block([encoded[t] for t in c], "\n    ") for c in self.clauses], "\n  "
                ),
                "theorems": _block([
                    f'{{\n      "removed_index": {_int(t.removed_index)},\n      "conclusion": '
                    f'{_block([encoded[c] for c in t.conclusion], deep)},\n      "certified": '
                    f'{_string(t.certified)},\n      "trace_steps": {_int(t.trace_steps)},'
                    f'\n      "trace_replayed": {_indented(t.trace_replayed, deep)}\n    }}'
                    for t in self.theorems
                ], "\n  "),
            }
        except (KeyError, TypeError):  # a text not listed, or a field not of its type
            return _indented(self.to_dict(), "\n") + "\n"
        # The report without records gives the rest and the key order; one join copies it.
        pieces = ["{"]
        for k, v in replace(self, signature=(), clauses=(), theorems=()).to_dict().items():
            text = written[k] if k in written else _indented(v, "\n  ")
            pieces += ("\n  ", _string(k), ": ", text, ",")
        pieces[-1] = "\n}\n"
        return "".join(pieces)

    @classmethod
    def from_dict(cls, data) -> "Report":
        """Read a report; a missing or mistyped field raises SchemaViolationError."""
        if not isinstance(data, dict):
            raise SchemaViolationError("report: document must be an object")
        meta = require(data, "metadata", dict, "report")
        explanations = []
        explanation_by_key = {}
        raw = require(data, "explanations", list, "report", dict, default=())
        for i, e in enumerate(raw):
            where = f"report explanations[{i}]"
            for key in ("declared_priority", "model_score", "warnings"):
                if key not in e:  # null is valid, absence is not
                    raise SchemaViolationError(f"{where}: missing required field {key!r}")
            exp = Explanation(
                scenario=require(e, "scenario", str, where),
                permutation=tuple(require(e, "permutation", list, where, str)),
                removed_index=require(e, "removed_index", int, where),
                role_label=require(e, "role_label", str, where),
                narrative=require(e, "narrative", str, where),
                remediation=require(e, "remediation", str, where),
                provenance=require(e, "provenance", str, where, choices=PROVENANCES),
                declared_priority=require(
                    e, "declared_priority", str, where, default=None, choices=PRIORITIES
                ),
                model_score=require(e, "model_score", (int, float), where, default=None),
                warnings=tuple(require(e, "warnings", list, where, str, default=())),
            )
            explanations.append(exp)
            explanation_by_key[(exp.scenario, exp.removed_index)] = exp
        ranking = None
        raw = require(data, "ranking", dict, "report", default=None)
        if raw:
            entries = []
            raw_entries = require(raw, "entries", list, "report ranking", dict)
            for i, entry in enumerate(raw_entries):
                where = f"report ranking entries[{i}]"
                key = (
                    require(entry, "scenario", str, where),
                    require(entry, "removed_index", int, where),
                )
                exp = explanation_by_key.get(key)
                if exp is None:
                    raise ValueError(f"ranking references unknown explanation {key}")
                priority = require(entry, "priority", str, where, choices=PRIORITIES)
                score = require(entry, "score", (int, float), where)
                require(entry, "remediation", str, where)
                entries.append(RankedEntry(exp, priority, score))
            policy = require(raw, "policy", str, "report ranking", choices=POLICIES)
            ranking = RankedReport(tuple(entries), policy)
        signature = []
        for i, s in enumerate(require(data, "signature", list, "report", dict)):
            where = f"report signature[{i}]"
            signature.append(
                (require(s, "symbol", str, where), require(s, "arity", int, where))
            )
        # Each distinct text is checked once for each role: a conclusion literal
        # must parse, and a clause literal must also name a listed symbol.
        conclusion_texts: set[str] = set()
        clause_texts: set[str] = set()
        theorems = []
        for i, t in enumerate(require(data, "theorems", list, "report", dict)):
            where = f"report theorems[{i}]"
            theorems.append(
                TheoremRecord(
                    removed_index=require(t, "removed_index", int, where),
                    conclusion=_literal_texts(
                        require(t, "conclusion", list, where), conclusion_texts
                    ),
                    certified=require(t, "certified", str, where),
                    trace_steps=require(t, "trace_steps", int, where),
                    trace_replayed=t.get("trace_replayed"),
                )
            )
        # A listed symbol is listed once, and a clause literal names one.
        symbols = Signature(tuple(s for s, _ in signature))
        clauses = require(data, "clauses", list, "report", list)
        return cls(
            n=require(meta, "n", int, "report metadata"),
            permutation=tuple(
                require(meta, "permutation", list, "report metadata", str)
            ),
            signature=tuple(signature),
            clauses=tuple(_literal_texts(c, clause_texts, symbols) for c in clauses),
            theorems=tuple(theorems),
            scenario=require(meta, "scenario", str, "report metadata", default=None),
            explanations=tuple(explanations),
            ranking=ranking,
            timestamp=require(meta, "timestamp", str, "report metadata"),
            tool=meta.get("tool", TOOL_NAME),
            version=meta.get("version", __version__),
            schema_version=data.get("schema_version", SCHEMA_VERSION),
        )

    @classmethod
    def from_json(cls, text: str) -> "Report":
        return cls.from_dict(json.loads(text))


# The stdlib writes ``indent=2`` with its pure-Python encoder (the C one
# serves only ``indent=None``); this writer gives the same text faster.
_string = json.encoder.encode_basestring_ascii
_CONSTANTS = {True: "true", False: "false", None: "null"}
_INT = {int: int.__repr__}


def _int(value) -> str:
    """An int as json writes it; a bool or any other type raises KeyError."""
    return _INT[type(value)](value)


def _block(items: list, newline: str, brackets: str = "[]") -> str:
    """Items written one level below ``newline``, in ``brackets``, laid out as ``indent=2``."""
    if not items:
        return brackets
    inner = newline + "  "
    return f'{brackets[0]}{inner}{("," + inner).join(items)}{newline}{brackets[1]}'


def _indented(value, newline: str) -> str:
    """``value`` as ``json.dumps(value, indent=2)`` writes it, at the depth
    that ``newline`` (a line break and the enclosing indentation) marks.
    Object keys are strings, as in every report."""
    if isinstance(value, str):
        return _string(value)
    if value is None or value is True or value is False:
        return _CONSTANTS[value]
    if isinstance(value, int):
        return int.__repr__(value)
    inner = newline + "  "
    if isinstance(value, (list, tuple)):
        return _block([_indented(v, inner) for v in value], newline)
    if isinstance(value, dict):
        items = [_string(k) + ": " + _indented(v, inner) for k, v in value.items()]
        return _block(items, newline, "{}")
    return json.dumps(value)  # a float, or a value the stdlib refuses alike


def _literal_texts(
    texts: list, checked: set[str], signature: Optional[Signature] = None
) -> tuple[str, ...]:
    """Recorded literals as written, each checked to parse and, given a
    ``signature``, to name one of its symbols. A text in ``checked`` passed
    before; each text that passes now is added to it."""
    for text in texts:
        if isinstance(text, str) and text in checked:
            continue
        symbol = parse_literal(text).symbol
        if signature is not None:
            signature.index_of(symbol)
        checked.add(text)
    return tuple(texts)


def current_timestamp() -> str:
    """The UTC time to the second, as ``datetime``'s ``isoformat`` writes it."""
    return time.strftime("%Y-%m-%dT%H:%M:%S+00:00", time.gmtime())


def build_report(
    ftsc: Ftsc,
    theorems: Sequence[Theorem],
    *,
    scenario: Optional[str] = None,
    explanations: Sequence[Explanation] = (),
    ranking: Optional[RankedReport] = None,
    replay_results: Optional[Sequence[bool]] = None,
    timestamp: Optional[str] = None,
) -> Report:
    sig = ftsc.signature
    # Each literal's text, indexed as ``int_clauses`` encodes it.
    names = [""] + list(sig.symbols) + ["~" + s for s in reversed(sig.symbols)]

    def conclusion_text(theorem: Theorem) -> tuple[str, ...]:
        # The construction's own conclusion x1..x(i-1), ~xi (x1..xn for i = n+1)
        # is read from the name table; the comparison meets the very literals
        # it shares with the theorem. Any other, such as a failed theorem's,
        # may name an unlisted symbol, so it is written literal by literal.
        i = theorem.removed_index
        if 1 <= i <= ftsc.n + 1 and theorem.conclusion == conclusion_for(ftsc, i):
            return sig.symbols[: i - 1] + (names[-i],) if i <= ftsc.n else sig.symbols
        return tuple(map(Literal.__str__, theorem.conclusion))

    records = [
        TheoremRecord(
            removed_index=theorem.removed_index,
            conclusion=conclusion_text(theorem),
            certified=theorem.certified,
            trace_steps=trace_length(ftsc.n, theorem.removed_index),
            trace_replayed=None if replay_results is None else bool(replay_results[pos]),
        )
        for pos, theorem in enumerate(theorems)
    ]
    return Report(
        n=ftsc.n,
        permutation=ftsc.permutation,
        signature=tuple(zip(sig.symbols, sig.arities)),
        clauses=tuple(
            tuple(map(names.__getitem__, ints)) for ints in ftsc.clause_set.int_clauses()
        ),
        theorems=tuple(records),
        scenario=scenario,
        explanations=tuple(explanations),
        ranking=ranking,
        timestamp=timestamp if timestamp is not None else current_timestamp(),
    )

