"""Grammar-level syntax checker for the TPTP subset the package emits.

Independent recursive-descent parser for files made of cnf/fof annotated
formulas over literals, | and & chains (unmixed), and ! quantifier
prefixes. Each predicate must keep one arity across the file. Returns
normally on valid input and raises TptpSyntaxError otherwise.
"""

from __future__ import annotations

import re

_NAME = re.compile(r"[a-z][A-Za-z0-9_]*")
_VARIABLE = re.compile(r"[A-Z][A-Za-z0-9_]*")
_ROLES = {
    "axiom", "hypothesis", "definition", "assumption", "lemma", "theorem",
    "corollary", "conjecture", "negated_conjecture", "plain",
}


class TptpSyntaxError(ValueError):
    pass


class _Tokens:
    _PATTERN = re.compile(
        r"\s+|(?P<word>[A-Za-z0-9_]+)|(?P<punct>[()\[\],.:!|&~%])"
    )

    def __init__(self, text: str):
        self.items: list[str] = []
        pos = 0
        for line in text.splitlines():
            if line.lstrip().startswith("%"):
                continue
            pos = 0
            while pos < len(line):
                match = self._PATTERN.match(line, pos)
                if not match:
                    raise TptpSyntaxError(f"unexpected character at: {line[pos:pos+10]!r}")
                if match.lastgroup is not None:
                    self.items.append(match.group(match.lastgroup))
                pos = match.end()
        self.index = 0
        # predicate name -> the number of arguments it was first used with
        self.arities: dict[str, int] = {}

    def peek(self):
        return self.items[self.index] if self.index < len(self.items) else None

    def take(self, expected=None):
        token = self.peek()
        if token is None:
            raise TptpSyntaxError("unexpected end of input")
        if expected is not None and token != expected:
            raise TptpSyntaxError(f"expected {expected!r}, got {token!r}")
        self.index += 1
        return token


def _parse_term(tokens: _Tokens):
    token = tokens.take()
    if not (_NAME.fullmatch(token) or _VARIABLE.fullmatch(token)):
        raise TptpSyntaxError(f"bad term: {token!r}")


def _parse_atom(tokens: _Tokens):
    token = tokens.take()
    if not _NAME.fullmatch(token):
        raise TptpSyntaxError(f"bad predicate name: {token!r}")
    arity = 0
    if tokens.peek() == "(":
        tokens.take("(")
        _parse_term(tokens)
        arity = 1
        while tokens.peek() == ",":
            tokens.take(",")
            _parse_term(tokens)
            arity += 1
        tokens.take(")")
    first = tokens.arities.setdefault(token, arity)
    if first != arity:
        raise TptpSyntaxError(f"predicate {token!r} used with arities {first} and {arity}")


def _parse_literal(tokens: _Tokens):
    if tokens.peek() == "~":
        tokens.take("~")
    _parse_atom(tokens)


def _parse_unit(tokens: _Tokens):
    if tokens.peek() == "(":
        tokens.take("(")
        _parse_formula(tokens)
        tokens.take(")")
    else:
        _parse_literal(tokens)


def _parse_formula(tokens: _Tokens):
    if tokens.peek() == "!":
        tokens.take("!")
        tokens.take("[")
        token = tokens.take()
        if not _VARIABLE.fullmatch(token):
            raise TptpSyntaxError(f"bad quantified variable: {token!r}")
        while tokens.peek() == ",":
            tokens.take(",")
            token = tokens.take()
            if not _VARIABLE.fullmatch(token):
                raise TptpSyntaxError(f"bad quantified variable: {token!r}")
        tokens.take("]")
        tokens.take(":")
        _parse_unit(tokens)
        return
    _parse_unit(tokens)
    connective = None
    while tokens.peek() in ("|", "&"):
        op = tokens.take()
        if connective is None:
            connective = op
        elif op != connective:
            raise TptpSyntaxError("mixed | and & without parentheses")
        _parse_unit(tokens)


def check_tptp(text: str) -> int:
    """Validate the text; returns the number of annotated formulas."""
    tokens = _Tokens(text)
    count = 0
    while tokens.peek() is not None:
        language = tokens.take()
        if language not in ("cnf", "fof"):
            raise TptpSyntaxError(f"expected cnf or fof, got {language!r}")
        tokens.take("(")
        name = tokens.take()
        if not _NAME.fullmatch(name):
            raise TptpSyntaxError(f"bad formula name: {name!r}")
        tokens.take(",")
        role = tokens.take()
        if role not in _ROLES:
            raise TptpSyntaxError(f"bad role: {role!r}")
        tokens.take(",")
        _parse_formula(tokens)
        tokens.take(")")
        tokens.take(".")
        count += 1
    if count == 0:
        raise TptpSyntaxError("no annotated formulas found")
    return count
