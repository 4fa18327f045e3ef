"""Interpretation layer: scenarios, narrative templates, ranking, model client.

A scenario binds abstract atoms to a domain: human-readable glosses, the
source rule sentences a dependency clause formalizes, remediation
suggestions keyed by clause index, and optional priority declarations.
Scenario files are written in a subset of YAML; see docs/scenario_format.md
for the field spec and the subset.

Narratives come from deterministic templates by default. An external
language model can be plugged in over HTTP to rewrite narratives and score
salience, but it can never fail the pipeline: any client problem degrades
to the template output with a recorded warning, and the provenance field
always states truthfully which path produced the text.

Only certified theorems are verbalized. Refusing to narrate an unverified
entailment is deliberate: every explanation must be backed by a checked
proof.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Mapping, Optional, Sequence, Union

from .core import (
    EmptyInputError,
    Literal,
    Record,
    SchemaViolationError,
    Signature,
    read_input,
    replace,
    require,
    validate_input,
)
from .fol import GroundingDomain, PredicateAtom, const, ground_atoms, var
from .generator import CERT_VERIFIED, Theorem, proof_steps, step_clause

# The scenario reader and ``urllib`` are imported inside the two functions
# that use them: most commands need neither.

# Role vocabulary for removal indices. The first and last clauses have
# fixed structural readings; interior clauses are read off their position
# in the dependency chain. With only two literals the single conditional
# clause is both the first and the last link, so it gets the generic label.
ROLE_BASE = "base-overconstraint"
ROLE_LOCAL = "local-conditional"
ROLE_INTERMEDIATE = "intermediate-causal"
ROLE_TERMINAL = "treatment/terminal"
ROLE_GLOBAL = "global-unsat"
ROLE_GENERIC = "generic-chain"

PRIORITIES = ("High", "Medium", "Low")

PROVENANCE_TEMPLATE = "template"
PROVENANCE_MODEL = "external-model"
PROVENANCES = (PROVENANCE_TEMPLATE, PROVENANCE_MODEL)
#: A ranking's policy, "external-model" when an explanation has a model score.
POLICIES = ("default", PROVENANCE_MODEL)

ENDPOINT_ENV = "CONTRAGEN_MODEL_ENDPOINT"
API_KEY_ENV = "CONTRAGEN_MODEL_KEY"

#: Version tag for the request text template; bump when the wording changes
#: so recorded client fixtures stay replayable.
PROMPT_VERSION = "2"

_TRACE_SUMMARY_TEMPLATE = (
    "[v{version}] Entailment {index} of {total}: with dependency clause "
    "{index} removed, the remaining clauses stay satisfiable yet refute the "
    "removed clause. Proof: {count} steps ({steps})."
)


class ScenarioParseError(ValueError):
    """The scenario text is outside the YAML subset scenario files use."""

    def __init__(self, message: str, line: int, source: str):
        super().__init__(f"{source}: line {line}: {message}")
        self.line = line


class UncertifiedTheoremError(ValueError):
    """Only verified theorems may be explained."""


class ArityMismatchError(ValueError):
    """Scenario shape does not match the theorem it should explain."""


class ModelClientError(RuntimeError):
    """The external model could not produce a usable response."""


class ScenarioAtom(Record):
    __slots__ = _fields = ("predicate", "gloss")

    @property
    def symbol(self) -> str:
        return self.predicate.name


class Scenario(Record):
    """A named registry binding abstract literals to domain meanings.

    Construction grounds the atoms over ``grounding`` once and admits each
    ground instance as a signature (a duplicate or complementary atom
    raises a ``ValidationError`` here, not mid-pipeline). ``signatures``
    and ``atoms_for`` read those stored instances. ``rule_texts``,
    ``remediations`` and ``priorities`` are per-clause tables: (clause
    index, text) pairs, at most one per index.
    """

    _fields = (
        "name", "domain_label", "atoms", "grounding", "rule_texts", "remediations", "priorities"
    )
    __slots__ = _fields + ("_signatures",)

    def __init__(
        self, name: str, domain_label: str, atoms: tuple[ScenarioAtom, ...],
        grounding: tuple[tuple[str, tuple[str, ...]], ...] = (),
        rule_texts: tuple[tuple[int, str], ...] = (),
        remediations: tuple[tuple[int, str], ...] = (),
        priorities: tuple[tuple[int, str], ...] = (),
    ):
        self._assign(locals())
        instances = ground_atoms([a.predicate for a in atoms], GroundingDomain(grounding))
        signatures = tuple(validate_input(lits) for lits in instances)
        object.__setattr__(self, "_signatures", signatures)

    @property
    def n(self) -> int:
        return len(self.atoms)

    def signatures(self) -> list[Signature]:
        """One admitted signature per ground instance, in grounding order."""
        return list(self._signatures)

    def rule_text_for(self, index: int) -> Optional[str]:
        return _text_for(self.rule_texts, index)

    def remediation_for(self, index: int) -> Optional[str]:
        return _text_for(self.remediations, index)

    def priority_for(self, index: int) -> Optional[str]:
        return _text_for(self.priorities, index)

    def atoms_for(self, signature: Signature) -> dict[str, ScenarioAtom]:
        """Map each signature symbol to the scenario atom it grounds.

        Matches the stored ground instance whose symbols coincide with the
        signature (in any order), so permuted constructions and predicates
        that repeat under different constant arguments both resolve
        correctly. Raises ArityMismatchError when no instance matches.
        """
        if signature.size != self.n:
            raise ArityMismatchError(
                f"scenario {self.name!r} declares {self.n} atoms, "
                f"signature has {signature.size} symbols"
            )
        wanted = set(signature.symbols)
        for instance in self._signatures:
            if set(instance.symbols) == wanted:
                return dict(zip(instance.symbols, self.atoms))
        raise ArityMismatchError(
            f"signature symbols do not match any ground instance of "
            f"scenario {self.name!r}"
        )

    def gloss_map(self, signature: Signature) -> dict[str, str]:
        """Map each signature symbol to its gloss; see ``atoms_for``."""
        return {sym: atom.gloss for sym, atom in self.atoms_for(signature).items()}


def _text_for(table: tuple[tuple[int, str], ...], index: int) -> Optional[str]:
    return next((text for i, text in table if i == index), None)


def _parse_index(value, n: int, where: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise SchemaViolationError(f"{where}: clause index must be an integer")
    if not 1 <= value <= n + 1:
        raise SchemaViolationError(
            f"{where}: clause index {value} out of range 1..{n + 1}"
        )
    return value


def _index_table(doc, key: str, n: int, source_name: str, choices=None):
    """Read the optional mapping ``key`` of clause index to text as pairs."""
    raw = require(doc, key, dict, source_name, default={})
    where = f"{source_name}: {key}"
    return tuple(
        (_parse_index(k, n, where), require(raw, k, str, where, choices=choices)) for k in raw
    )


def _scenario_from_document(doc, source_name: str) -> Scenario:
    if not isinstance(doc, dict):
        raise SchemaViolationError(f"{source_name}: document must be a mapping")
    name = require(doc, "name", str, source_name)
    domain_label = require(doc, "domain", str, source_name)
    raw_atoms = require(doc, "atoms", list, source_name)
    if not raw_atoms:
        raise SchemaViolationError(f"{source_name}: atoms list must be nonempty")

    atoms = []
    for pos_i, entry in enumerate(raw_atoms, start=1):
        where = f"{source_name}: atoms[{pos_i}]"
        if not isinstance(entry, dict):
            raise SchemaViolationError(f"{where}: each atom must be a mapping")
        symbol = require(entry, "symbol", str, where)
        gloss = require(entry, "gloss", str, where)
        args = tuple(require(entry, "args", list, where, str, default=()))
        arity = require(entry, "arity", int, where, default=len(args))
        if arity != len(args):
            raise SchemaViolationError(
                f"{where}: arity {arity} disagrees with {len(args)} args"
            )
        variables = frozenset(require(entry, "variables", list, where, str, default=()))
        unknown = variables - set(args)
        if unknown:
            raise SchemaViolationError(
                f"{where}: variables {sorted(unknown)} do not appear in args"
            )
        terms = tuple(var(a) if a in variables else const(a) for a in args)
        atoms.append(ScenarioAtom(PredicateAtom(symbol, terms), gloss))

    grounding_raw = require(doc, "grounding", dict, source_name, default={})
    grounding = tuple(
        (str(k), tuple(str(c) for c in require(grounding_raw, k, list, source_name)))
        for k in grounding_raw
    )

    n = len(atoms)
    rule_texts = _index_table(doc, "rule_texts", n, source_name)
    remediations = {}
    raw_remediations = require(doc, "remediations", list, source_name, default=())
    for pos_i, entry in enumerate(raw_remediations, start=1):
        where = f"{source_name}: remediations[{pos_i}]"
        if not isinstance(entry, dict):
            raise SchemaViolationError(f"{where}: each remediation must be a mapping")
        index = _parse_index(require(entry, "index", int, where), n, where)
        if index in remediations:
            raise SchemaViolationError(f"{where}: clause index {index} already has a remediation")
        text = require(entry, "text", str, where)
        if not text.strip():
            raise SchemaViolationError(f"{where}: text must be nonempty")
        require(entry, "formal", str, where, default=None)  # checked, then dropped
        remediations[index] = text

    return Scenario(
        name=name,
        domain_label=domain_label,
        atoms=tuple(atoms),
        grounding=grounding,
        rule_texts=rule_texts,
        remediations=tuple(remediations.items()),
        priorities=_index_table(doc, "priorities", n, source_name, choices=PRIORITIES),
    )


def load_scenario_text(text: str, source_name: str = "<scenario>") -> Scenario:
    from .scenario_yaml import read

    return _scenario_from_document(read(text, source_name), source_name)


def load_scenario(path: Union[str, Path]) -> Scenario:
    """Load and validate a scenario from a YAML file, read by ``read_input``."""
    return load_scenario_text(read_input(path), str(Path(path)))


def role_for_index(removed_index: int, n: int) -> str:
    """The structural reading of removing clause ``removed_index`` from an
    n-literal chain. Total over 1..n+1."""
    if not 1 <= removed_index <= n + 1:
        raise IndexError(f"removed index out of range: {removed_index}")
    if removed_index == 1:
        return ROLE_BASE
    if removed_index == n + 1:
        return ROLE_GLOBAL
    if n == 2:
        return ROLE_GENERIC
    if removed_index == 2:
        return ROLE_LOCAL
    if removed_index == n:
        return ROLE_TERMINAL
    return ROLE_INTERMEDIATE


# Each role's narrative sentence, and the remediation used when the scenario declares none.
_ROLE_TEXTS = {
    ROLE_BASE: (
        "The base assertion {focus} is overconstrained: the downstream "
        "dependencies leave it no consistent way to hold on its own.",
        "Add evidence requirements or preconditions before asserting the base "
        "predicate on its own.",
    ),
    ROLE_LOCAL: (
        "The first conditional link breaks: {focus} cannot hold together "
        "with its trigger under the remaining rules.",
        "Add thresholds or exceptions so the first conditional rule does not "
        "fire unconditionally.",
    ),
    ROLE_INTERMEDIATE: (
        "An intermediate link of the dependency chain conflicts: "
        "{focus} is incompatible with its upstream conditions.",
        "Qualify the intermediate dependency with contextual conditions.",
    ),
    ROLE_TERMINAL: (
        "The terminal obligation {focus} cannot coexist with the "
        "accumulated upstream conditions.",
        "Add qualifying criteria before the terminal obligation triggers "
        "automatically.",
    ),
    ROLE_GLOBAL: (
        "The joint consistency constraint fails: all {count} conditions "
        "cannot hold at once, so the rule set as a whole is unsatisfiable.",
        "Relax at least one upstream dependency, or add contextual qualifiers, "
        "so that the conditions no longer have to hold jointly.",
    ),
    ROLE_GENERIC: (
        "The dependency chain as a whole rejects this clause: each of "
        "its branches is refuted by the remaining rules.",
        "Revise the flagged dependency so the remaining rules no longer force "
        "its negation.",
    ),
}


class Explanation(Record):
    """A rendered reading of one certified theorem."""

    __slots__ = _fields = (
        "scenario", "permutation", "removed_index", "role_label", "narrative", "remediation",
        "provenance", "declared_priority", "model_score", "warnings",
    )
    _defaults = {"declared_priority": None, "model_score": None, "warnings": ()}

    @property
    def n(self) -> int:
        return len(self.permutation)


def _conjunct_phrase(lit: Literal, glosses: Mapping[str, str]) -> str:
    gloss = glosses.get(lit.symbol, lit.symbol)
    if lit.negated:
        return f"{lit.symbol} must fail"
    return f"{lit.symbol} must hold ({gloss})"


def verbalize(theorem: Theorem, scenario: Scenario) -> Explanation:
    """Deterministic template rendering of one certified theorem.

    Pure function: identical inputs yield byte-identical narratives.
    Raises UncertifiedTheoremError for anything not verified and
    ArityMismatchError when the scenario shape does not fit the theorem.
    """
    if theorem.certified != CERT_VERIFIED:
        raise UncertifiedTheoremError(
            f"theorem (removed index {theorem.removed_index}) is "
            f"{theorem.certified}; only verified theorems are explained"
        )
    ftsc = theorem.source
    glosses = scenario.gloss_map(ftsc.signature)
    i = theorem.removed_index
    n = ftsc.n
    role = role_for_index(i, n)
    sentence, fallback = _ROLE_TEXTS[role]
    focus_symbol = ftsc.permutation[min(i, n) - 1]
    focus = f"'{focus_symbol}' ({glosses.get(focus_symbol, focus_symbol)})"

    parts = [
        f"Dependency clause {i} of {n + 1} ({ftsc.clause_set.clauses[i - 1]}) is a minimal "
        f"conflict source in scenario '{scenario.name}'.",
        sentence.format(focus=focus, count=n),
    ]
    rule_text = scenario.rule_text_for(i)
    if rule_text:
        parts.append(f'It formalizes the rule: "{rule_text}"')
    conjuncts = "; ".join(_conjunct_phrase(l, glosses) for l in theorem.conclusion)
    parts.append(
        f"Removing clause {i} leaves the remaining {n} clauses jointly "
        f"satisfiable, yet they refute every branch of the removed clause: "
        f"{conjuncts}."
    )
    remediation = scenario.remediation_for(i) or fallback
    parts.append(f"Suggested remediation: {remediation}")

    return Explanation(
        scenario=scenario.name,
        permutation=ftsc.permutation,
        removed_index=i,
        role_label=role,
        narrative=" ".join(parts),
        remediation=remediation,
        provenance=PROVENANCE_TEMPLATE,
        declared_priority=scenario.priority_for(i),
    )


# --- Ranking -----------------------------------------------------------

_PRIORITY_SCORES = {"High": 0.9, "Medium": 0.6, "Low": 0.3}

_HIGH_THRESHOLD = 0.75
_MEDIUM_THRESHOLD = 0.45


class RankedEntry(Record):
    __slots__ = _fields = ("explanation", "priority", "score")


class RankedReport(Record):
    __slots__ = _fields = ("entries", "policy")


def rank(explanations: Sequence[Explanation]) -> RankedReport:
    """Score explanations and order them by score, descending.

    A model score is used clamped to [0, 1], rating High from 0.75 and
    Medium from 0.45. Without one, declared priorities map to scores (High
    0.9, Medium 0.6, Low 0.3); undeclared entries rate Low in a (scenario,
    permutation) group that declares any priority, so the declarations
    keep their discriminating power. Only a group that declares nothing
    gets the fallback heuristic: the joint consistency clause rates
    Medium, the earliest conditional clause High, everything else Low. The
    heuristic is a configuration of this artifact, not a reproduction of
    any particular scoring scheme. The policy is "external-model" when any
    explanation has a model score, else "default".

    Deterministic and input-order independent: ties break by scenario
    name and then by removed index ascending. Raises EmptyInputError on
    an empty list.
    """
    if not explanations:
        raise EmptyInputError("nothing to rank")
    GroupKey = tuple[str, tuple[str, ...]]
    declared_groups: set[GroupKey] = set()
    earliest: dict[GroupKey, int] = {}
    for e in explanations:
        key = (e.scenario, e.permutation)
        if e.declared_priority is not None:
            declared_groups.add(key)
        elif 2 <= e.removed_index <= e.n:
            if key not in earliest or e.removed_index < earliest[key]:
                earliest[key] = e.removed_index
    entries = []
    for e in explanations:
        key = (e.scenario, e.permutation)
        if e.declared_priority is not None:
            priority = e.declared_priority
        elif key in declared_groups:
            priority = "Low"
        elif e.removed_index == e.n + 1:
            priority = "Medium"
        elif earliest.get(key) == e.removed_index:
            priority = "High"
        else:
            priority = "Low"
        score = _PRIORITY_SCORES[priority]
        if e.model_score is not None:
            score = min(1.0, max(0.0, float(e.model_score)))
            priority = "High" if score >= _HIGH_THRESHOLD else (
                "Medium" if score >= _MEDIUM_THRESHOLD else "Low"
            )
        entries.append(RankedEntry(e, priority, score))
    entries.sort(
        key=lambda entry: (
            -entry.score,
            entry.explanation.scenario,
            entry.explanation.removed_index,
        )
    )
    scored = any(e.model_score is not None for e in explanations)
    return RankedReport(tuple(entries), PROVENANCE_MODEL if scored else "default")


# --- External model client ---------------------------------------------


def trace_summary(theorem: Theorem) -> str:
    """Versioned text summary of a theorem's proof for model prompts: the
    clauses of the proof steps it uses, in order."""
    ftsc = theorem.source
    used = proof_steps(theorem)
    return _TRACE_SUMMARY_TEMPLATE.format(
        version=PROMPT_VERSION,
        index=theorem.removed_index,
        total=ftsc.n + 1,
        count=len(used),
        steps="; ".join(str(step_clause(ftsc, ftsc.proof.steps[s])) for s in used),
    )


def build_model_request(theorem: Theorem, scenario: Scenario) -> dict:
    """The wire request: {scenario, clauses, removed_index, trace_summary}."""
    glosses = scenario.gloss_map(theorem.source.signature)
    return {
        "scenario": {
            "name": scenario.name,
            "domain": scenario.domain_label,
            "glosses": glosses,
        },
        "clauses": [
            [str(l) for l in clause.literals]
            for clause in theorem.source.clause_set.clauses
        ],
        "removed_index": theorem.removed_index,
        "trace_summary": trace_summary(theorem),
    }


class StaticModelClient:
    """Test/fixture client: replays a recorded response (or raises)."""

    def __init__(self, response: Optional[dict] = None, error: Optional[Exception] = None):
        self.response = response
        self.error = error
        self.requests: list[dict] = []

    def complete(self, request: dict) -> dict:
        self.requests.append(request)
        if self.error is not None:
            raise self.error
        return dict(self.response or {})


class HttpModelClient:
    """Minimal JSON-over-HTTP client.

    The endpoint comes from the constructor or from the
    CONTRAGEN_MODEL_ENDPOINT environment variable, the key from
    CONTRAGEN_MODEL_KEY only; a model is in use exactly when ``endpoint``
    is set. A missing endpoint, one that is not an http or https URL, and
    any transport or decoding problem raise ModelClientError.
    """

    def __init__(self, endpoint: Optional[str] = None, timeout: float = 10.0):
        self.endpoint = endpoint or os.environ.get(ENDPOINT_ENV)
        self.api_key = os.environ.get(API_KEY_ENV)
        self.timeout = timeout

    def complete(self, request: dict) -> dict:
        if not self.endpoint:
            raise ModelClientError("no model endpoint configured")
        import http.client
        import urllib.error
        import urllib.parse
        import urllib.request

        # urlopen also reads file: and data: URLs; only a server may answer.
        scheme = urllib.parse.urlsplit(self.endpoint).scheme
        if scheme not in ("http", "https"):
            raise ModelClientError(f"model endpoint must be an http or https URL, not {scheme!r}")
        body = json.dumps(request).encode("utf-8")
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        req = urllib.request.Request(self.endpoint, data=body, headers=headers)
        try:
            with urllib.request.urlopen(req, timeout=self.timeout) as resp:
                payload = resp.read()
        except (urllib.error.URLError, http.client.HTTPException, OSError, ValueError) as exc:
            raise ModelClientError(f"model request failed: {exc}") from exc
        try:
            decoded = json.loads(payload.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ModelClientError(f"model response was not JSON: {exc}") from exc
        if not isinstance(decoded, dict):
            raise ModelClientError("model response must be a JSON object")
        return decoded


def _validate_model_response(response: dict) -> tuple[str, Optional[str], float]:
    narrative = response.get("narrative")
    if not isinstance(narrative, str) or not narrative.strip():
        raise ModelClientError("response field 'narrative' must be a nonempty string")
    remediation = response.get("remediation")
    if remediation is not None and not isinstance(remediation, str):
        raise ModelClientError("response field 'remediation' must be a string")
    score = response.get("score")
    if not isinstance(score, (int, float)) or isinstance(score, bool):
        raise ModelClientError("response field 'score' must be a number")
    return narrative, remediation, float(score)


def explain_via_model(theorem: Theorem, scenario: Scenario, client=None) -> Explanation:
    """Explain through the external model, degrading safely to templates.

    ``client`` defaults to an ``HttpModelClient`` configured from the
    environment. The request carries the clause set, the removed index,
    and a versioned trace summary; the response must supply {narrative,
    remediation, score}. On any client failure, a missing endpoint
    included, the template explanation is returned with a warning
    recorded, so this function never raises for transport or schema
    problems. The theorem must still be certified.
    """
    template = verbalize(theorem, scenario)
    if client is None:
        client = HttpModelClient()
    try:
        response = client.complete(build_model_request(theorem, scenario))
        narrative, remediation, score = _validate_model_response(response)
    except Exception as exc:  # degradation contract: never fail the pipeline
        return replace(
            template,
            warnings=template.warnings
            + (f"external model unavailable ({exc}); template output used",),
        )
    return replace(
        template,
        narrative=narrative,
        remediation=remediation if remediation else template.remediation,
        provenance=PROVENANCE_MODEL,
        model_score=min(1.0, max(0.0, score)),
    )
