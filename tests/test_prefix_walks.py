"""The three row walks that start a row from the previous row's saved
prefix: the certificate kernel, certification and the JSON writer.

Each is compared with a plain reference written here, which walks every
row in full, on row families with shared prefixes, repeated rows, rows
equal to or shorter than the saved prefix, empty rows, and signatures on
both sides of the size from which prefixes are reused.
"""

import json

from hypothesis import given, settings, strategies as st

import contragen.verifier as verifier
from contragen import Signature, build_ftsc, derive_theorems
from contragen.core import Literal, replace
import contragen.report as report_module
from contragen.report import Report, TheoremRecord

from test_cli import run

# Signature sizes on both sides of the reuse threshold.
SIZES = (1, 2, 7, verifier._PREFIX_MIN_VARS - 1, verifier._PREFIX_MIN_VARS, 24)


@st.composite
def row_families(draw, entries):
    """Rows in which most extend the previous row's all-but-last entries,
    and the rest extend the whole row, repeat it, cut it short, empty it or
    start afresh."""
    rows = [tuple(draw(st.lists(entries, max_size=4)))]
    for _ in range(draw(st.integers(0, 12))):
        last = rows[-1]
        kind = draw(st.sampled_from(["extend", "extend", "extend", "grow", "repeat", "prefix",
                                     "empty", "fresh"]))
        if kind == "extend":
            row = last[:-1] + tuple(draw(st.lists(entries, min_size=1, max_size=3)))
        elif kind == "grow":
            row = last + tuple(draw(st.lists(entries, min_size=1, max_size=3)))
        elif kind == "repeat":
            row = last
        elif kind == "prefix":
            row = last[: draw(st.integers(0, len(last)))]
        elif kind == "empty":
            row = ()
        else:
            row = tuple(draw(st.lists(entries, max_size=6)))
        rows.append(row)
    return rows


def plain_violations(rows, patterns, width):
    """Per row, the positions (bits of a ``width``-bit mask) where every
    literal is false; symbol v is true at position i where bit i of
    ``patterns[v - 1]`` is set."""
    blocks = []
    for row in rows:
        block = 0
        for i in range(width):
            if all((patterns[abs(v) - 1] >> i & 1) != (v > 0) for v in row):
                block |= 1 << i
        blocks.append(block)
    return blocks


class TestKernel:
    @settings(max_examples=150, deadline=None)
    @given(st.data(), st.sampled_from(SIZES), st.integers(1, 9))
    def test_matches_a_full_walk(self, data, n, width):
        literals = st.integers(1, n).flatmap(lambda v: st.sampled_from([v, -v]))
        rows = data.draw(row_families(literals))
        patterns = data.draw(st.lists(st.integers(0, (1 << width) - 1), min_size=n, max_size=n))
        full = (1 << width) - 1
        got = list(verifier._violations(rows, patterns, full))
        assert got == plain_violations(rows, patterns, width)

    def test_row_equal_to_the_saved_prefix(self):
        # The second row extends the whole first row, the third is the first's
        # saved prefix and the fourth extends it.
        n, width = verifier._PREFIX_MIN_VARS, 8
        rows = [(1, -2, 3), (1, -2, 3, -4), (1, -2), (1, -4, 5), (1,), ()]
        patterns = [0b00001111, 0b00110011, 0b01010101, 0b11110000] + [0b10011001] * (n - 4)
        assert list(verifier._violations(rows, patterns, 255)) == plain_violations(
            rows, patterns, width)

    def test_chain_candidates_at_every_size(self):
        for n in SIZES:
            clause_set = build_ftsc(Signature(tuple(f"s{i}" for i in range(n)))).clause_set
            assert verifier._checked_models(clause_set) == [
                ((1 << n) - 1) ^ positive for positive, _ in clause_set.masks()
            ]


def plain_verdict(theorem):
    """Today's verdict for a theorem of a genuine chain: the index in range,
    then every conclusion symbol listed, then the conclusion, as a set, the
    literal-wise negation of the removed clause."""
    ftsc, i = theorem.source, theorem.removed_index
    if not 1 <= i <= ftsc.n + 1:
        return f"removed index {i} out of range 1..{ftsc.n + 1}"
    for literal in theorem.conclusion:
        if literal.symbol not in ftsc.permutation:
            return f"conclusion symbol {literal.symbol!r} outside the signature"
    clause = ftsc.clause_set.clauses[i - 1].literals
    negated = {(lit.symbol, not lit.negated) for lit in clause}
    if {(lit.symbol, lit.negated) for lit in theorem.conclusion} != negated:
        return f"conclusion not the negated clause {i}"
    return None


def chain(n, name="s"):
    return build_ftsc(Signature(tuple(f"{name}{i}" for i in range(n))))


class TestCertification:
    @settings(max_examples=150, deadline=None)
    @given(st.data(), st.sampled_from(SIZES))
    def test_matches_a_plain_verdict(self, data, n):
        ftsc = chain(n)
        positives, negatives = ftsc.literals
        pool = positives + negatives + (Literal("outside"), Literal("outside", True))
        conclusions = data.draw(row_families(st.sampled_from(pool)))
        indices = data.draw(st.lists(st.integers(0, n + 2), min_size=len(conclusions),
                                     max_size=len(conclusions)))
        theorems = [
            replace(derive_theorems(ftsc)[0], removed_index=i, conclusion=c)
            for i, c in zip(indices, conclusions)
        ]
        assert verifier.certification_failures(theorems) == [plain_verdict(t) for t in theorems]

    def test_conclusion_equal_to_the_saved_prefix(self):
        theorems = derive_theorems(chain(24))
        prefix = replace(theorems[10], conclusion=theorems[9].conclusion[:-1])
        cases = [theorems[9], prefix, theorems[8], replace(theorems[11], conclusion=())]
        assert verifier.certification_failures(cases) == [plain_verdict(t) for t in cases]

    def test_genuine_chains_certify(self):
        for n in SIZES:
            theorems = derive_theorems(chain(n))
            assert verifier.certification_failures(theorems) == [None] * (n + 1)

    def test_one_element_calls(self):
        theorems = derive_theorems(chain(24))
        flipped = replace(theorems[9], conclusion=theorems[8].conclusion)
        for theorem in (*theorems, flipped):
            verdict = plain_verdict(theorem)
            assert verifier.certification_failures([theorem])[0] == verdict
            assert (verifier.check_theorem(theorem).certified == "verified") is (verdict is None)

    def test_interleaved_sources(self):
        # Two chains over the same symbols in different orders share literal
        # texts, so a prefix saved over one signature must not serve the other.
        a = chain(24)
        b = build_ftsc(Signature(tuple(reversed(a.permutation))))
        swapped = [replace(t, conclusion=u.conclusion)
                   for t, u in zip(derive_theorems(a), derive_theorems(b))]
        mixed = [t for pair in zip(derive_theorems(a), derive_theorems(b)) for t in pair]
        for theorems in (mixed, swapped, swapped[::-1]):
            assert verifier.certification_failures(theorems) == [
                plain_verdict(t) for t in theorems
            ]

    def test_flip_inside_a_shared_prefix_fails_only_that_theorem(self):
        theorems = derive_theorems(chain(24))
        c = list(theorems[20].conclusion)
        c[10] = c[10].negate()
        theorems[20] = replace(theorems[20], conclusion=tuple(c))
        expected = [None] * 25
        expected[20] = "conclusion not the negated clause 21"
        assert verifier.certification_failures(theorems) == expected

    def test_outside_symbol_inside_the_prefix_is_the_one_named(self):
        theorems = derive_theorems(chain(24))
        c = list(theorems[20].conclusion)
        c[3], c[15] = Literal("first"), Literal("second")
        theorems[20] = replace(theorems[20], conclusion=tuple(c))
        failures = verifier.certification_failures(theorems)
        assert failures[20] == "conclusion symbol 'first' outside the signature"
        assert failures[:20] + failures[21:] == [None] * 24

    def test_index_out_of_range_between_theorems_sharing_a_prefix(self):
        theorems = derive_theorems(chain(24))
        theorems[12] = replace(theorems[12], removed_index=99)
        failures = verifier.certification_failures(theorems)
        assert failures[12] == "removed index 99 out of range 1..25"
        assert failures[:12] + failures[13:] == [None] * 24

    def test_reordered_conclusion_still_certifies(self):
        theorems = derive_theorems(chain(24))
        theorems[15] = replace(theorems[15], conclusion=theorems[15].conclusion[::-1])
        assert verifier.certification_failures(theorems) == [None] * 25


def report_with(rows, conclusions, symbols):
    records = tuple(
        TheoremRecord(removed_index=i + 1, conclusion=c, certified="verified", trace_steps=3)
        for i, c in enumerate(conclusions)
    )
    return Report(
        n=len(symbols), permutation=symbols, signature=tuple((s, 0) for s in symbols),
        clauses=tuple(rows), theorems=records, timestamp="2026-01-01T00:00:00+00:00",
    )


class TestJsonWriter:
    @settings(max_examples=150, deadline=None)
    @given(st.data(), st.sampled_from(SIZES))
    def test_matches_the_stdlib(self, data, n):
        symbols = tuple(f'x"{i}é' for i in range(n))
        texts = st.sampled_from(symbols + tuple("~" + s for s in symbols))
        report = report_with(data.draw(row_families(texts)), data.draw(row_families(texts)),
                             symbols)
        assert report.to_json() == json.dumps(report.to_dict(), indent=2) + "\n"

    def test_row_equal_to_the_saved_prefix(self):
        symbols = tuple(f"s{i}" for i in range(4))
        rows = [symbols[:3], symbols[:2], symbols[:2] + ("~s3",), (), symbols[:1]]
        report = report_with(rows, rows[::-1], symbols)
        assert report.to_json() == json.dumps(report.to_dict(), indent=2) + "\n"

    def test_text_not_in_the_table_takes_the_generic_writer(self, monkeypatch):
        symbols = tuple(f"s{i}" for i in range(24))
        rows = [tuple("~" + s for s in symbols[:t]) + (symbols[t],) for t in range(24)]
        conclusions = [symbols[:t] + ("~" + symbols[t],) for t in range(24)]
        conclusions[20] = conclusions[20][:-1] + ("unlisted",)
        report = report_with(rows, conclusions, symbols)
        calls = []
        indented = report_module._indented
        monkeypatch.setattr(
            report_module, "_indented", lambda v, nl: calls.append(v) or indented(v, nl)
        )
        assert report.to_json() == json.dumps(report.to_dict(), indent=2) + "\n"
        assert any(isinstance(v, dict) and "clauses" in v for v in calls)  # the whole report


def tamper(path, theorem, position):
    data = json.loads(path.read_text())
    c = data["theorems"][theorem]["conclusion"]
    c[position] = c[position][1:] if c[position][0] == "~" else "~" + c[position]
    path.write_text(json.dumps(data, indent=2) + "\n")


class TestCli:
    def test_interior_flip_at_n256_names_the_theorem(self, capsys, tmp_path):
        out = tmp_path / "r.json"
        symbols = [f"s{i}" for i in range(1, 257)]
        assert run(capsys, "generate", *symbols, "--output", str(out))[0] == 0
        tamper(out, 199, 149)
        code, text, _ = run(capsys, "verify", str(out))
        assert code == 2
        assert "theorem 200: failed" in text
        assert ('theorems: theorems[199].conclusion[149] recorded "~s150", regenerated "s150"'
                in text)

    def test_interior_flip_at_n64(self, capsys, tmp_path):
        out = tmp_path / "r.json"
        symbols = [f"s{i}" for i in range(1, 65)]
        assert run(capsys, "generate", *symbols, "--permutation", "12345",
                   "--output", str(out))[0] == 0
        tamper(out, 40, 20)
        code, text, _ = run(capsys, "verify", str(out))
        assert code == 2
        assert "theorem 41: failed" in text
        assert "theorems: theorems[40].conclusion[20] recorded" in text

    def test_round_trips_around_the_threshold(self, capsys, tmp_path):
        for n in (1, 2, 7, 8, 9, verifier._PREFIX_MIN_VARS, 64):
            out = tmp_path / f"r{n}.json"
            symbols = [f"s{i}" for i in range(n)]
            assert run(capsys, "generate", *symbols, "--output", str(out))[0] == 0
            text = out.read_text()
            assert text == json.dumps(json.loads(text), indent=2) + "\n"
            code, lines, _ = run(capsys, "verify", str(out))
            assert code == 0
            assert lines.splitlines() == [
                "unsatisfiable: True",
                "minimal (every deletion satisfiable): True",
                *(f"theorem {i}: verified" for i in range(1, n + 2)),
                "verification passed",
            ]
