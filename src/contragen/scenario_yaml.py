"""A standard-library reader for the YAML subset that scenario files use.

``read`` returns what ``yaml.safe_load`` returns for a document inside the
subset, and raises ``ScenarioParseError`` naming the line for anything
outside it; docs/scenario_format.md lists both. It is a loop over lines
with an explicit stack of open collections, so no input makes it recurse.
"""

from __future__ import annotations

import re

from .explain import ScenarioParseError

#: The schema's deepest value, ``atoms[i].args[j]``, sits in four collections.
MAX_DEPTH = 8

_NON_PRINTABLE = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\x7f-\x84\x86-\x9f\ufffe\uffff]")
_BLOCK_CHAR = r"(?:[^ \t:]|:(?=[^ \t]))"
_FLOW_CHAR = r"(?:[^ \t:,?\[\]{}]|:(?=[^ \t,\[\]{}]))"
_NOT_FIRST = r" \t\-?:,\[\]{}#&*!|>'\"%@`"
# Words joined by spaces, ending before ": ", " #", a tab or the line's end,
# and inside a flow collection before any of ",?[]{}".
_PLAIN = {
    False: re.compile(rf"(?:[^{_NOT_FIRST}]|[-?:](?=[^ \t])){_BLOCK_CHAR}*(?: +(?!#){_BLOCK_CHAR}+)*"),
    True: re.compile(rf"(?:[^{_NOT_FIRST}]|-(?=[^ \t])){_FLOW_CHAR}*(?: +(?!#){_FLOW_CHAR}+)*"),
}
_QUOTED = {"'": re.compile(r"'((?:[^']|'')*)'"), '"': re.compile(r'"((?:[^"\\]|\\.)*)"')}
_ESCAPE = r"\\(x[0-9A-Fa-f]{2}|u[0-9A-Fa-f]{4}|U[0-9A-Fa-f]{8}|.)"
_ESCAPES = dict(zip("0abt\tnvfre \"/\\N_LP", "\0\a\b\t\t\n\v\f\r\x1b \"/\\\x85\xa0\u2028\u2029"))
# YAML 1.1's null and booleans, each in its three cases.
_WORDS = {form: value for word, value in (("null", None), ("yes", True), ("true", True), ("on", True),
                                          ("no", False), ("false", False), ("off", False))
          for form in (word, word.title(), word.upper())}
_WORDS["~"] = None
_DECIMAL = re.compile(r"[-+]?(?:0|[1-9][0-9]*)")
# YAML 1.1's other integers, its floats and timestamps, and the merge and value keys.
_QUOTE_IT = r"""[-+]?(?:0b[0-1_]+|0[0-7_]+|0|[1-9][0-9_]*|0x[0-9a-fA-F_]+|[1-9][0-9_]*(?::[0-5]?[0-9])+)
  | [-+]?[0-9][0-9_]*\.[0-9_]*(?:[eE][-+][0-9]+)? | \.[0-9][0-9_]*(?:[eE][-+][0-9]+)?
  | [-+]?[0-9][0-9_]*(?::[0-5]?[0-9])+\.[0-9_]* | [-+]?\.(?:inf|Inf|INF) | \.(?:nan|NaN|NAN)
  | [0-9]{4}-[0-9]{2}-[0-9]{2} | << | =
  | [0-9]{4}-[0-9][0-9]?-[0-9][0-9]?(?:[Tt]|[ \t]+)[0-9][0-9]?:[0-9]{2}:[0-9]{2}(?:\.[0-9]*)?
    (?:[ \t]*(?:Z|[-+][0-9][0-9]?(?::[0-9]{2})?))?"""
_UNSUPPORTED = {"&": "anchors", "*": "aliases", "!": "tags", "|": "block scalars",
                ">": "block scalars", "?": "'?' keys", "%": "directives"}
_TOO_DEEP = f"nesting deeper than {MAX_DEPTH} levels"
_KEY, _SEP = object(), object()  # a flow mapping's next key, and a comma or closing bracket


def read(text: str, source: str):
    """The document in ``text``; ``source`` names it in a ``ScenarioParseError``."""
    # Lone surrogates, which no decoded file holds, are looked for apart:
    # their range takes a millisecond to compile.
    bad = _NON_PRINTABLE.search(text) or not text.isascii() and re.search("[\ud800-\udfff]", text)
    if bad:
        line = len(text[: bad.start() + 1].splitlines())
        raise ScenarioParseError(f"character {bad[0]!r} is not allowed", line, source)
    root = [None]
    stack = []  # (indent, collection) of each open block collection, outermost first
    pending = (root, 0, -1)  # (owner, key, indent): the slot a more indented line fills
    for number, line in enumerate(text.removeprefix("\ufeff").splitlines(), 1):
        try:
            pending = _line(line, stack, pending)
        except ValueError as exc:
            raise ScenarioParseError(str(exc), number, source) from None
    return root[0]


def _line(line: str, stack: list, pending):
    """Add ``line`` to the open collections; return the slot left pending."""
    text = line.lstrip(" ")
    col = len(line) - len(text)
    if text[:1] == "\t":
        raise ValueError("tab in indentation")
    if not text or text[0] == "#":
        return pending
    if col == 0 and text[:3] in ("---", "...") and text[3:4] in ("", " ", "\t"):
        raise ValueError("document markers are not supported")
    # A sequence may sit at its mapping key's indent; it ends at the first line that is no item.
    if pending and (col > pending[2] or col == pending[2] and isinstance(pending[0], dict) and _is_item(text)):
        if not _node(text, col, stack, *pending[:2], True):
            return None
    else:
        while stack and (stack[-1][0] > col or stack[-1][0] == col and len(stack) > 1
                         and stack[-2][0] == col and not _is_item(text)):
            stack.pop()
        if not stack or stack[-1][0] != col:
            raise ValueError("unexpected indentation; multi-line scalars are not supported")
    while True:  # add the entry to the innermost collection, opening those compact items start
        collection = stack[-1][1]
        if isinstance(collection, dict):
            key_colon = _key(text)
            if key_colon is None:
                raise ValueError("expected 'key: value'")
            key, colon = key_colon
            _add_key(collection, key, colon)
            rest = text[colon + 1 :].lstrip(" ")
        elif _is_item(text):
            key, rest = len(collection), text[1:].lstrip(" ")
            collection.append(None)
        else:
            raise ValueError("expected a '- ' item")
        if not rest or rest[0] == "#":
            return collection, key, col
        col, text = col + len(text) - len(rest), rest
        # A mapping value on the key's line is a scalar or flow; an item may open a collection.
        if not _node(text, col, stack, collection, key, isinstance(collection, list)):
            return None


def _is_item(text: str) -> bool:
    return text[:1] == "-" and text[1:2] in ("", " ")


def _node(text: str, col: int, stack: list, owner, key, block: bool) -> bool:
    """Put the node that starts ``text`` into ``owner[key]``; True when it
    is a ``block`` collection, which goes on ``stack`` to take the entry."""
    if not (block and (_is_item(text) or text[0] not in "[{" and _key(text) is not None)):
        value, end = _flow(text, len(stack)) if text[0] in "[{" else _scalar(text, 0, False)
        end = _skip(text, end)
        if end < len(text) and text[end] != "#":
            raise ValueError(f"unexpected {text[end:]!r}")
        owner[key] = value
        return False
    if len(stack) >= MAX_DEPTH:
        raise ValueError(_TOO_DEEP)
    owner[key] = collection = [] if _is_item(text) else {}
    stack.append((col, collection))
    return True


def _key(text: str):
    """The key and the index of its colon when ``text`` is a ``key: value`` entry."""
    key, end = _scalar(text, 0, False)
    colon = _skip(text, end)
    if text[colon : colon + 1] == ":" and text[colon + 1 : colon + 2] in ("", " "):
        return key, colon
    return None


def _add_key(mapping: dict, key, length: int) -> None:
    if length > 1024:  # YAML's limit on an implicit key, from its start to its colon
        raise ValueError("a key must end within 1024 characters")
    if key in mapping:
        raise ValueError(f"repeated key {key}")
    mapping[key] = None


def _skip(text: str, i: int) -> int:
    while text[i : i + 1] == " ":
        i += 1
    return i


def _flow(text: str, depth: int):
    """The flow collection that opens ``text``, and the index after it."""
    frames = []  # [collection, the key its next value takes, or _KEY or _SEP] of each open one
    i = 0
    while True:
        i = _skip(text, i)
        ch = text[i : i + 1]
        if not ch or ch == "#":
            raise ValueError("a flow collection must close on the line it opens")
        collection, slot = frames[-1] if frames else (None, None)
        if frames and ch == ("]" if isinstance(collection, list) else "}"):
            frames.pop()
            if not frames:
                return collection, i + 1
            i += 1
        elif slot is _SEP:
            if ch != ",":
                raise ValueError(f"unexpected {text[i:]!r} in a flow collection")
            frames[-1][1] = None if isinstance(collection, list) else _KEY
            i += 1
        elif slot is _KEY:
            key, end = _scalar(text, i, True)
            colon = _skip(text, end)
            if text[colon : colon + 1] != ":":
                raise ValueError("expected ':' after a flow mapping key")
            _add_key(collection, key, colon - i)
            frames[-1][1], i = key, colon + 1
        elif ch == "," and isinstance(collection, dict):
            frames[-1][1] = _SEP  # the key has no value: null
        else:
            if ch in "[{":
                if depth + len(frames) >= MAX_DEPTH:
                    raise ValueError(_TOO_DEEP)
                value, i = ([] if ch == "[" else {}), i + 1
            else:
                value, i = _scalar(text, i, True)
            if frames:  # the outermost collection is the result, not an item
                if isinstance(collection, list):
                    collection.append(value)
                else:
                    collection[slot] = value
                frames[-1][1] = _SEP
            if ch in "[{":
                frames.append([value, None if ch == "[" else _KEY])


def _scalar(text: str, i: int, flow: bool):
    """The scalar at ``text[i]``, and the index after it."""
    ch = text[i : i + 1]
    if ch in _QUOTED:
        match = _QUOTED[ch].match(text, i)
        if not match:
            raise ValueError("a quoted scalar must close on the line it opens")
        body = match[1]
        if ch == "'":
            return body.replace("''", "'"), match.end()
        return (re.sub(_ESCAPE, _unescape, body) if "\\" in body else body), match.end()
    match = _PLAIN[flow].match(text, i)
    if not match:
        raise ValueError(f"{_UNSUPPORTED[ch]} are not supported" if ch in _UNSUPPORTED
                         else f"unexpected {text[i:]!r}")
    word = match[0]
    if word in _WORDS:
        return _WORDS[word], match.end()
    if _DECIMAL.fullmatch(word):
        return int(word), match.end()
    # Compiled on first use: scenario files rarely hold a word that needs it.
    if word[0] in "-+.0123456789<=" and re.fullmatch(_QUOTE_IT, word, re.X):
        raise ValueError(f"{word!r} does not read as a string in YAML; quote it")
    return word, match.end()


def _unescape(match) -> str:
    code = match[1]
    if len(code) > 1:
        return chr(int(code[1:], 16))
    if code not in _ESCAPES:
        raise ValueError(f"unknown escape \\{code}")
    return _ESCAPES[code]
