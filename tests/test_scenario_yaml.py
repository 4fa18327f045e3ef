"""The scenario reader against PyYAML, its oracle.

PyYAML is a test dependency only. Every document the reader accepts must
read as ``yaml.safe_load`` reads it; every other document must be refused
with a ``ScenarioParseError`` that names a line.
"""

import json
import random

import pytest
import yaml
from hypothesis import given, settings, strategies as st

from contragen.explain import ScenarioParseError
from contragen.scenario_yaml import MAX_DEPTH, read

from conftest import SCENARIO_DIR

# ASCII words that YAML reads as strings, with single spaces between them.
WORDS = st.from_regex(r"[A-Za-z][A-Za-z0-9_]{0,6}( [A-Za-z0-9_]{1,6}){0,2}", fullmatch=True).filter(
    lambda w: yaml.safe_load(w) == w
)
CORE_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-(10**9), 10**9), WORDS)
# Any text: plain, it may read as another type, break the line or be refused.
SCALARS = st.one_of(CORE_SCALARS, st.text(max_size=12), st.sampled_from(["1.5", "0x1F", "2001-12-14", "<<", "-"]))
KEYS = st.one_of(WORDS, st.integers(0, 99))


def documents(scalars, keys, depth=3):
    """Mappings of ``keys`` to values at most ``depth`` collections deeper."""
    node = scalars
    for _ in range(depth):
        node = st.one_of(scalars, st.lists(node, max_size=3), st.dictionaries(keys, node, max_size=3))
    return st.dictionaries(keys, node, max_size=4)


def scalar(value, rnd: random.Random) -> str:
    if value is None:
        return rnd.choice(["~", "null", "NULL"])
    if isinstance(value, bool):
        return rnd.choice(["true", "True", "yes", "ON"] if value else ["false", "FALSE", "no", "Off"])
    if isinstance(value, int):
        return str(value)
    style = rnd.randrange(3)
    if style == 0:
        return value
    if style == 1:
        return "'" + value.replace("'", "''") + "'"
    return json.dumps(value)  # JSON's escapes are a subset of YAML's


def flow(value, rnd: random.Random) -> str:
    if isinstance(value, list):
        return "[" + ", ".join(flow(v, rnd) for v in value) + "]"
    if isinstance(value, dict):
        return "{" + ", ".join(f"{scalar(k, rnd)}: {flow(v, rnd)}" for k, v in value.items()) + "}"
    return scalar(value, rnd)


def block(node, indent: int, rnd: random.Random) -> list:
    """The lines of a nonempty list or mapping at ``indent``; items that
    are collections go compact (``- key: value``) or on the lines below."""
    lines = []
    pad = " " * indent
    entries = node.items() if isinstance(node, dict) else ((None, v) for v in node)
    for key, value in entries:
        head = pad + (scalar(key, rnd) + ":" if isinstance(node, dict) else "-")
        if not (isinstance(value, (list, dict)) and value):
            lines.append(f"{head} {flow(value, rnd)}")
            continue
        inner = block(value, indent + 2, rnd)
        if head.endswith("-") and rnd.random() < 0.5:
            inner[0] = f"{head} {inner[0].lstrip(' ')}"
        else:
            lines.append(head)
        lines.extend(inner)
    return lines


def renderings(doc, rnd: random.Random):
    yield "\n".join(block(doc, 0, rnd)) + "\n" if doc else "{}\n"
    yield flow(doc, rnd) + "\n"


@settings(max_examples=300, deadline=None)
@given(documents(SCALARS, st.one_of(KEYS, st.text(max_size=6))), st.randoms(use_true_random=False))
def test_reader_agrees_with_pyyaml_or_names_a_line(doc, rnd):
    for text in renderings(doc, rnd):
        try:
            got = read(text, "doc.yaml")
        except ScenarioParseError as exc:
            assert exc.line >= 1 and str(exc).startswith(f"doc.yaml: line {exc.line}: ")
            assert "\n" not in str(exc)
            continue
        assert repr(got) == repr(yaml.safe_load(text)), text


@settings(max_examples=200, deadline=None)
@given(documents(CORE_SCALARS, KEYS), st.randoms(use_true_random=False))
def test_core_documents_are_accepted(doc, rnd):
    for text in renderings(doc, rnd):
        assert repr(read(text, "doc.yaml")) == repr(doc), text


@pytest.mark.parametrize("path", sorted(SCENARIO_DIR.glob("*.yaml")), ids=lambda p: p.stem)
def test_fixtures_read_as_pyyaml_reads_them(path):
    text = path.read_text(encoding="utf-8")
    assert repr(read(text, path.name)) == repr(yaml.safe_load(text))


@pytest.mark.parametrize(
    "text, line, message",
    [
        ("a: 1\nb:\n  c: &x 2\n", 3, "anchors are not supported"),
        ("a: *x\n", 1, "aliases are not supported"),
        ("a: !!str 1\n", 1, "tags are not supported"),
        ("a: |\n  text\n", 1, "block scalars are not supported"),
        ("? a\n: b\n", 1, "'?' keys are not supported"),
        ("%YAML 1.1\n", 1, "directives are not supported"),
        ("---\na: 1\n", 1, "document markers are not supported"),
        ("a:\n\t- b\n", 2, "tab in indentation"),
        ("a: one\n  two\n", 2, "unexpected indentation; multi-line scalars are not supported"),
        ("a: 'one\n  two'\n", 1, "a quoted scalar must close on the line it opens"),
        ("a: [one,\n  two]\n", 1, "a flow collection must close on the line it opens"),
        ("a: 1.5\n", 1, "'1.5' does not read as a string in YAML; quote it"),
        ("a: 2001-12-14\n", 1, "'2001-12-14' does not read as a string in YAML; quote it"),
        ("<<: {}\n", 1, "'<<' does not read as a string in YAML; quote it"),
        ("a: {b: 1, b: 2}\n", 1, "repeated key b"),
        ("a: {x: 1 y: 2}\n", 1, "unexpected ': 2}' in a flow collection"),
        ("a: {x y}\n", 1, "expected ':' after a flow mapping key"),
        ("a:\n  - {1: x}\n  - [y]\nb: \x01\n", 4, "character '\\x01' is not allowed"),
        ("a: " + "[" * (MAX_DEPTH + 1) + "]" * (MAX_DEPTH + 1) + "\n", 1,
         f"nesting deeper than {MAX_DEPTH} levels"),
        ("a: b: c\n", 1, "unexpected ': c'"),
        ("a: 1\nb\n", 2, "expected 'key: value'"),
        ("- a\nb: 1\n", 2, "expected a '- ' item"),
        ("k" * 1025 + ": 1\n", 1, "a key must end within 1024 characters"),
        ('a: "\\q"\n', 1, "unknown escape \\q"),
    ],
)
def test_refusals_name_the_line(text, line, message):
    with pytest.raises(ScenarioParseError) as info:
        read(text, "doc.yaml")
    assert (info.value.line, str(info.value)) == (line, f"doc.yaml: line {line}: {message}")


@pytest.mark.parametrize(
    "text, expected",
    [
        ("", None),
        ("# only a comment\n", None),
        ("a:\n- x\n- y\nb: 1\n", {"a": ["x", "y"], "b": 1}),
        ("- a:\n  - b\n  c: 2\n- - d\n  - e\n", [{"a": ["b"], "c": 2}, ["d", "e"]]),
        ("a: {b: , c: [1, ]}  # comment\n", {"a": {"b": None, "c": [1]}}),
        ('a: "tab\\there \\u00e9" # x\nb: \'it\'\'s\'#y\n', {"a": "tab\there é", "b": "it's"}),
        ("a: p's data, a#b # comment\n", {"a": "p's data, a#b"}),
        ("\ufeffa: -0\nb: +7\nc: yes\nd: Off\ne: ~\n", {"a": 0, "b": 7, "c": True, "d": False, "e": None}),
    ],
)
def test_subset_examples(text, expected):
    got = read(text, "doc.yaml")
    assert repr(got) == repr(expected) == repr(yaml.safe_load(text))
