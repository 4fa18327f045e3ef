"""Known answers for every benchmark op, computed without contragen.

The triangular chain over an ordering x1..xn is fixed by the paper, so the
expected clauses, conclusions, counts and formats can be written down here
directly. Each ``check_*`` returns a list of problems; empty means correct.
These run outside the timed region.
"""

from __future__ import annotations

import itertools
import json
import math
import re


def negate(lit: str) -> str:
    return lit[1:] if lit.startswith("~") else "~" + lit


def permutation_by_rank(items, rank: int) -> list:
    """The rank-th ordering of ``items`` in lexicographic index order."""
    pool = list(items)
    order = []
    for k in range(len(pool), 0, -1):
        index, rank = divmod(rank, math.factorial(k - 1))
        order.append(pool.pop(index))
    return order


def chain(perm) -> list[list[str]]:
    """C1 = x1; Ct = ~x1 | .. | ~x(t-1) | xt; C(n+1) = ~x1 | .. | ~xn."""
    clauses = [["~" + s for s in perm[: t - 1]] + [perm[t - 1]] for t in range(1, len(perm) + 1)]
    clauses.append(["~" + s for s in perm])
    return clauses


def check_report(data: dict, expected_perm=None) -> list[str]:
    """A generate/explain report: the chain, n+1 certified and replayed theorems."""
    problems = []
    try:
        perm = data["metadata"]["permutation"]
        n = data["metadata"]["n"]
        clauses = data["clauses"]
        theorems = data["theorems"]
    except (KeyError, TypeError) as exc:
        return [f"report lacks {exc}"]
    if expected_perm is not None and list(perm) != list(expected_perm):
        problems.append(f"permutation {perm} != expected {list(expected_perm)}")
    if n != len(perm):
        problems.append(f"n={n} but permutation has {len(perm)} symbols")
    if sorted(s["symbol"] for s in data.get("signature", [])) != sorted(perm):
        problems.append("signature symbols differ from the permutation")
    expected = chain(perm)
    if [list(c) for c in clauses] != expected:
        problems.append("clauses are not the triangular chain over the permutation")
    if len(clauses) != n + 1:
        problems.append(f"{len(clauses)} clauses, expected {n + 1}")
    literals = sum(len(c) for c in clauses)
    if literals != n * (n + 3) // 2:
        problems.append(f"{literals} literals, expected n(n+3)/2 = {n * (n + 3) // 2}")
    if [t.get("removed_index") for t in theorems] != list(range(1, n + 2)):
        problems.append(f"theorem indices are not 1..{n + 1}")
    for t, clause in zip(theorems, expected):
        if list(t.get("conclusion", ())) != [negate(l) for l in clause]:
            problems.append(f"theorem {t.get('removed_index')}: wrong conclusion")
        if t.get("certified") != "verified":
            problems.append(f"theorem {t.get('removed_index')}: certified={t.get('certified')}")
        if t.get("trace_replayed") is not True:
            problems.append(f"theorem {t.get('removed_index')}: trace not replayed")
    return problems


def check_explain(data: dict, expected_perm=None, golden=None) -> list[str]:
    """An explain report; ``golden`` is (clause lines, conclusion lines)."""
    problems = check_report(data, expected_perm)
    n = data.get("metadata", {}).get("n", 0)
    if len(data.get("explanations") or []) != n + 1:
        problems.append("explanations do not cover every theorem")
    ranking = data.get("ranking") or {}
    if sorted(e.get("removed_index") for e in ranking.get("entries", [])) != list(range(1, n + 2)):
        problems.append("ranking does not cover every theorem")
    if golden is not None:
        clause_lines, conclusion_lines = golden
        if [" | ".join(c) for c in data.get("clauses", [])] != clause_lines:
            problems.append("clauses differ from the golden file")
        rendered = [
            f"{t['removed_index']}: " + " & ".join(t["conclusion"])
            for t in data.get("theorems", [])
        ]
        if rendered != conclusion_lines:
            problems.append("conclusions differ from the golden file")
    return problems


def check_table(text: str, n: int) -> list[str]:
    rows = text.splitlines()[2:]
    if len(rows) != n + 1:
        return [f"table has {len(rows)} rows, expected {n + 1}"]
    ranks = [int(r.split()[0]) for r in rows]
    clauses = sorted(int(r.split()[1]) for r in rows)
    if ranks != list(range(1, n + 2)) or clauses != list(range(1, n + 2)):
        return ["table ranks or clause indices are not 1..n+1"]
    return []


_VAR = re.compile(r"^c var (\d+) (\S+)$")


def check_dimacs(text: str, expected_perm) -> list[str]:
    names = {}
    header = None
    clauses = []
    for line in text.splitlines():
        match = _VAR.match(line)
        if match:
            names[int(match.group(1))] = match.group(2)
        elif line.startswith("p cnf"):
            header = line.split()[2:]
        elif line and not line.startswith("c"):
            ints = [int(t) for t in line.split()]
            if ints[-1] != 0:
                return ["clause not terminated by 0"]
            clauses.append([("~" if v < 0 else "") + names.get(abs(v), "?") for v in ints[:-1]])
    n = len(expected_perm)
    problems = []
    if header != [str(n), str(n + 1)]:
        problems.append(f"header {header}, expected p cnf {n} {n + 1}")
    if clauses != chain(expected_perm):
        problems.append("DIMACS clauses are not the chain over the permutation")
    return problems


def check_tptp(text: str, n: int, mode: str) -> list[str]:
    axioms = len(re.findall(rf"^{mode}\(dependency_\d+, axiom,", text, re.M))
    conjectures = len(re.findall(r"^fof\(entailment_\d+, conjecture,", text, re.M))
    if axioms != n + 1 or conjectures != n + 1:
        return [f"TPTP has {axioms} axioms and {conjectures} conjectures, expected {n + 1} each"]
    return []


def check_verify(code: int, out: str, tampered: bool) -> list[str]:
    want_code, want_line = (2, "verification FAILED") if tampered else (0, "verification passed")
    if code != want_code or want_line not in out:
        return [f"verify exit {code} (wanted {want_code}), output lacks {want_line!r}"]
    return []


def check_enumerate(code: int, perm_lines: list[str], summary: str, symbols) -> list[str]:
    """All n! orderings streamed in lexicographic order, each certified."""
    total = math.factorial(len(symbols))
    problems = []
    if code != 0:
        problems.append(f"enumerate exit {code}")
    expected = [
        f"perm {k}: ({', '.join(p)}) certified"
        for k, p in enumerate(itertools.permutations(symbols))
    ]
    if perm_lines != expected:
        problems.append("streamed orderings differ from the n! lexicographic orderings")
    if f"permutations={total} " not in summary or f" distinct={total} " not in summary \
            or not summary.endswith(f" certified={total}/{total}"):
        problems.append(f"summary {summary!r} lacks permutations=distinct={total}, certified={total}/{total}")
    return problems


def tamper_report(text: str, theorem: int, position: int) -> str:
    """Flip one conclusion literal; verify must then exit 2."""
    data = json.loads(text)
    t = data["theorems"][theorem % len(data["theorems"])]
    k = position % len(t["conclusion"])
    t["conclusion"][k] = negate(t["conclusion"][k])
    return json.dumps(data, indent=2) + "\n"


def tamper_dimacs(text: str, position: int) -> str:
    """Flip one literal of the all-negative final clause: the set becomes
    satisfiable (all true), so it is no longer a minimal unsatisfiable set."""
    lines = text.splitlines()
    ints = lines[-1].split()
    k = position % (len(ints) - 1)
    ints[k] = ints[k].lstrip("-")
    lines[-1] = " ".join(ints)
    return "\n".join(lines) + "\n"
