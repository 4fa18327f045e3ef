"""The record contract: every record type compares, hashes, prints and
copies as a frozen dataclass with the same fields did, and stays immutable."""

import copy
import importlib
import inspect
import pickle
import pkgutil

import pytest

import contragen
from contragen.core import (
    Clause,
    ClauseSet,
    DuplicateSymbolError,
    FrozenInstanceError,
    Literal,
    Record,
    Signature,
    fields,
    neg,
    pos,
    replace,
)
from contragen.explain import (
    Explanation,
    RankedEntry,
    RankedReport,
    Scenario,
    ScenarioAtom,
)
from contragen.fol import GroundingDomain, PredicateAtom, Term, var
from contragen.generator import ProofTrace, Theorem, TraceStep, build_ftsc
from contragen.report import Report, TheoremRecord
from contragen.verifier import MusReport, ReplayResult, SatResult


def _step():
    return TraceStep("unit-derivation", pos("a"), 0)


def _explanation():
    return Explanation("s", ("P(c)",), 1, "seed", "text", "fix", "template")


def _entry():
    return RankedEntry(_explanation(), "High", 0.9)


def _atom():
    return ScenarioAtom(PredicateAtom("P", (var("x"),)), "p holds")


def _record():
    return TheoremRecord(1, ("~a",), "verified", 3, True)


# One sample of each record type, built afresh on each call.
SAMPLES = {
    "Literal": lambda: Literal("a"),
    "Signature": lambda: Signature(("a", "b")),
    "Clause": lambda: Clause((pos("a"), neg("b"))),
    "ClauseSet": lambda: ClauseSet.build([[pos("a")], [neg("a"), pos("b")]], Signature(("a", "b"))),
    "TraceStep": _step,
    "ProofTrace": lambda: ProofTrace((_step(),)),
    "Ftsc": lambda: build_ftsc(Signature(("a",))),
    "Theorem": lambda: Theorem(build_ftsc(Signature(("a",))), 1, (neg("a"),)),
    "SatResult": lambda: SatResult(False, None, "dpll"),
    "MusReport": lambda: MusReport(True, (SatResult(False, None, "dpll"),), True, "certificate"),
    "ReplayResult": lambda: ReplayResult(True, None, None, (1, 0), ("a",)),
    "TheoremRecord": _record,
    "Report": lambda: Report(
        1, ("a",), (("a", 0),), (("a",), ("~a",)), (_record(),), timestamp="t", version="0.1.0"
    ),
    "ScenarioAtom": _atom,
    "Scenario": lambda: Scenario(
        "s", "d", (_atom(),), (("x", ("c",)),), ((1, "rule"),), (), ((1, "High"),)
    ),
    "Explanation": _explanation,
    "RankedEntry": _entry,
    "RankedReport": lambda: RankedReport((_entry(),), "declared-priority"),
    "Term": lambda: Term("c"),
    "PredicateAtom": lambda: PredicateAtom("P", (Term("c"),)),
    "GroundingDomain": lambda: GroundingDomain((("x", ("c", "d")),)),
}

# Each type's field names and the repr its frozen dataclass printed.
EXPECTED = {
    "Literal": (
        ("symbol", "negated"),
        "Literal(symbol='a', negated=False)",
    ),
    "Signature": (
        ("symbols",),
        "Signature(symbols=('a', 'b'))",
    ),
    "Clause": (
        ("literals",),
        "Clause(literals=(Literal(symbol='a', negated=False), Literal(symbol='b', "
        "negated=True)))",
    ),
    "ClauseSet": (
        ("clauses", "signature"),
        "ClauseSet(clauses=(Clause(literals=(Literal(symbol='a', negated=False),)), "
        "Clause(literals=(Literal(symbol='a', negated=True), Literal(symbol='b', "
        "negated=False)))), signature=Signature(symbols=('a', 'b')))",
    ),
    "TraceStep": (
        ("kind", "literal", "premise_index"),
        "TraceStep(kind='unit-derivation', literal=Literal(symbol='a', negated=False), "
        "premise_index=0)",
    ),
    "ProofTrace": (
        ("steps",),
        "ProofTrace(steps=(TraceStep(kind='unit-derivation', "
        "literal=Literal(symbol='a', negated=False), premise_index=0),))",
    ),
    "Ftsc": (
        ("clause_set", "permutation", "n"),
        "Ftsc(clause_set=ClauseSet(clauses=(Clause(literals=(Literal(symbol='a', "
        "negated=False),)), Clause(literals=(Literal(symbol='a', negated=True),))), "
        "signature=Signature(symbols=('a',))), permutation=('a',), n=1)",
    ),
    "Theorem": (
        ("source", "removed_index", "conclusion", "certified"),
        "Theorem(source=Ftsc(clause_set=ClauseSet(clauses=(Clause(literals=(Literal(symbol='a', "
        "negated=False),)), Clause(literals=(Literal(symbol='a', negated=True),))), "
        "signature=Signature(symbols=('a',))), permutation=('a',), n=1), "
        "removed_index=1, conclusion=(Literal(symbol='a', negated=True),), "
        "certified='unchecked')",
    ),
    "SatResult": (
        ("satisfiable", "witness", "method"),
        "SatResult(satisfiable=False, witness=None, method='dpll')",
    ),
    "MusReport": (
        ("is_unsatisfiable", "deletion_results", "is_mus", "method"),
        "MusReport(is_unsatisfiable=True, "
        "deletion_results=(SatResult(satisfiable=False, witness=None, "
        "method='dpll'),), is_mus=True, method='certificate')",
    ),
    "ReplayResult": (
        ("ok", "failed_step", "reason", "units", "symbols"),
        "ReplayResult(ok=True, failed_step=None, reason=None)",
    ),
    "TheoremRecord": (
        ("removed_index", "conclusion", "certified", "trace_steps", "trace_replayed"),
        "TheoremRecord(removed_index=1, conclusion=('~a',), certified='verified', "
        "trace_steps=3, trace_replayed=True)",
    ),
    "Report": (
        (
            "n", "permutation", "signature", "clauses", "theorems", "scenario",
            "explanations", "ranking", "timestamp", "tool", "version",
            "schema_version",
        ),
        "Report(n=1, permutation=('a',), signature=(('a', 0),), clauses=(('a',), "
        "('~a',)), theorems=(TheoremRecord(removed_index=1, conclusion=('~a',), "
        "certified='verified', trace_steps=3, trace_replayed=True),), scenario=None, "
        "explanations=(), ranking=None, timestamp='t', tool='contragen', "
        "version='0.1.0', schema_version=1)",
    ),
    "ScenarioAtom": (
        ("predicate", "gloss"),
        "ScenarioAtom(predicate=PredicateAtom(name='P', args=(Term(name='x', "
        "kind='variable'),)), gloss='p holds')",
    ),
    "Scenario": (
        (
            "name", "domain_label", "atoms", "grounding", "rule_texts",
            "remediations", "priorities",
        ),
        "Scenario(name='s', domain_label='d', "
        "atoms=(ScenarioAtom(predicate=PredicateAtom(name='P', args=(Term(name='x', "
        "kind='variable'),)), gloss='p holds'),), grounding=(('x', ('c',)),), "
        "rule_texts=((1, 'rule'),), remediations=(), priorities=((1, 'High'),))",
    ),
    "Explanation": (
        (
            "scenario", "permutation", "removed_index", "role_label", "narrative",
            "remediation", "provenance", "declared_priority", "model_score",
            "warnings",
        ),
        "Explanation(scenario='s', permutation=('P(c)',), removed_index=1, "
        "role_label='seed', narrative='text', remediation='fix', "
        "provenance='template', declared_priority=None, model_score=None, "
        "warnings=())",
    ),
    "RankedEntry": (
        ("explanation", "priority", "score"),
        "RankedEntry(explanation=Explanation(scenario='s', permutation=('P(c)',), "
        "removed_index=1, role_label='seed', narrative='text', remediation='fix', "
        "provenance='template', declared_priority=None, model_score=None, "
        "warnings=()), priority='High', score=0.9)",
    ),
    "RankedReport": (
        ("entries", "policy"),
        "RankedReport(entries=(RankedEntry(explanation=Explanation(scenario='s', "
        "permutation=('P(c)',), removed_index=1, role_label='seed', narrative='text', "
        "remediation='fix', provenance='template', declared_priority=None, "
        "model_score=None, warnings=()), priority='High', score=0.9),), "
        "policy='declared-priority')",
    ),
    "Term": (
        ("name", "kind"),
        "Term(name='c', kind='constant')",
    ),
    "PredicateAtom": (
        ("name", "args"),
        "PredicateAtom(name='P', args=(Term(name='c', kind='constant'),))",
    ),
    "GroundingDomain": (
        ("bindings",),
        "GroundingDomain(bindings=(('x', ('c', 'd')),))",
    ),
}

NAMES = sorted(SAMPLES)


def test_every_record_type_has_a_sample():
    assert sorted(EXPECTED) == NAMES
    types = {type(make()) for make in SAMPLES.values()}
    assert {t.__name__ for t in types} == set(NAMES) and all(issubclass(t, Record) for t in types)


@pytest.mark.parametrize("name", NAMES)
def test_fields_in_order(name):
    record = SAMPLES[name]()
    assert fields(record) == fields(type(record)) == EXPECTED[name][0]


@pytest.mark.parametrize("name", NAMES)
def test_equality_and_hash(name):
    record, copy = SAMPLES[name](), SAMPLES[name]()
    assert record is not copy and record == copy and not record != copy
    values = tuple(getattr(record, f) for f in fields(record))
    assert record != values and record.__eq__(values) is NotImplemented
    assert hash(record) == hash(copy) == hash(values)
    with pytest.raises(TypeError):
        record < copy  # records have no order


def _built(cls, values):
    """A record of ``cls`` holding ``values``, its checks bypassed."""
    record = object.__new__(cls)
    for name, value in zip(fields(cls), values):
        object.__setattr__(record, name, value)
    return record


@pytest.mark.parametrize("name", NAMES)
def test_every_field_and_the_type_take_part(name):
    record = SAMPLES[name]()
    values = tuple(getattr(record, f) for f in fields(record))
    for i in range(len(values)):
        changed = _built(type(record), values[:i] + (object(),) + values[i + 1 :])
        assert record != changed and changed != record
    subclass = type("Sub", (type(record),), {"__slots__": ()})
    assert record != _built(subclass, values) and _built(subclass, values) != record


@pytest.mark.parametrize("name", NAMES)
def test_repr(name):
    assert repr(SAMPLES[name]()) == EXPECTED[name][1]


@pytest.mark.parametrize("name", NAMES)
def test_immutable(name):
    record = SAMPLES[name]()
    for attribute in fields(record)[:1] + ("extra",):
        with pytest.raises(FrozenInstanceError):
            setattr(record, attribute, None)
        with pytest.raises(AttributeError):
            delattr(record, attribute)
    assert issubclass(FrozenInstanceError, AttributeError)


@pytest.mark.parametrize("name", NAMES)
def test_replace(name):
    record = SAMPLES[name]()
    first = fields(record)[0]
    copy = replace(record)
    assert copy == record and copy is not record
    changed = replace(record, **{first: getattr(SAMPLES[name](), first)})
    assert changed == record
    with pytest.raises(TypeError):
        replace(record, no_such_field=1)


@pytest.mark.parametrize("name", NAMES)
def test_copy_and_pickle(name):
    record = SAMPLES[name]()
    assert copy.copy(record) == copy.deepcopy(record) == record
    assert pickle.loads(pickle.dumps(record)) == record


def test_replace_runs_the_checks_again():
    with pytest.raises(DuplicateSymbolError):
        replace(Signature(("a", "b")), symbols=("a", "a"))
    with pytest.raises(ValueError):
        replace(Term("c"), kind="neither")
    moved = replace(Signature(("a", "b")), symbols=("b", "a"))
    assert moved.index_of("a") == 1


def test_replace_copies_no_cached_value():
    theorem = SAMPLES["Theorem"]()
    assert theorem.trace is theorem.trace and "trace" in theorem.__dict__
    copy = replace(theorem, certified="verified")
    assert "trace" not in copy.__dict__ and copy.certified == "verified"
    assert copy.trace == theorem.trace


def test_derived_state_stays_out():
    # A clause set's encodings are derived, not fields: forged ones leave
    # equality, hash and repr alone. Only three types keep a ``__dict__``,
    # for their cached properties.
    clause_set = SAMPLES["ClauseSet"]()
    forged = ClauseSet._trusted(clause_set.clauses, clause_set.signature, (), ())
    assert forged == clause_set and hash(forged) == hash(clause_set)
    assert repr(forged) == repr(clause_set)
    with_dict = {n for n in NAMES if hasattr(SAMPLES[n](), "__dict__")}
    assert with_dict == {"Ftsc", "ReplayResult", "Theorem"}


def test_replay_masks_compare_but_do_not_print():
    one = ReplayResult(True, None, None, (1, 0), ("a",))
    other = ReplayResult(True, None, None, (0, 1), ("a",))
    assert one != other and repr(one) == repr(other)


def test_default_and_keyword_forms():
    assert Literal("a") == Literal("a", False) == Literal(symbol="a", negated=False)
    assert Clause() == Clause(())
    assert Report(1, (), (), (), (), timestamp="x").timestamp == "x"
    with pytest.raises(TypeError):
        Literal()
    with pytest.raises(TypeError):
        Literal("a", False, True)


def _record_types(cls=Record):
    for sub in cls.__subclasses__():
        yield sub
        yield from _record_types(sub)


def test_every_package_record_is_sampled_and_takes_its_fields():
    # ``__reduce__`` passes the fields by position and ``replace`` by name,
    # so a record's ``__init__``, written or its own, takes exactly them.
    for module in pkgutil.iter_modules(contragen.__path__):
        importlib.import_module(f"contragen.{module.name}")
    types = {t for t in _record_types() if t.__module__.startswith("contragen.")}
    assert sorted(t.__name__ for t in types) == NAMES
    for t in types:
        assert tuple(inspect.signature(t.__init__).parameters)[1:] == fields(t), t.__name__


def test_a_bad_call_names_the_record():
    with pytest.raises(TypeError) as info:
        Literal()
    assert str(info.value) == "Literal.__init__() missing 1 required positional argument: 'symbol'"
    with pytest.raises(TypeError, match=r"^Report\.__init__\(\) missing 4 required"):
        Report(1)
    with pytest.raises(TypeError, match=r"^TraceStep\.__init__\(\) takes 4 positional"):
        TraceStep("unit-derivation", None, 0, 1)


def test_written_init_takes_trailing_defaults():
    body = {"__slots__": ("a", "b"), "_fields": ("a", "b"), "_defaults": {"b": 2}}
    pair = type("Pair", (Record,), body)
    assert pair.__init__.__qualname__ == "Pair.__init__"
    assert (pair(1).a, pair(1).b, pair(1, b=3).b) == (1, 2, 3)
    for defaults in ({"a": 1}, {"c": 1}, {"a": 1, "b": 2, "c": 3}):
        with pytest.raises(TypeError, match="Bad._defaults must name its trailing fields"):
            type("Bad", (Record,), {**body, "_defaults": defaults})
