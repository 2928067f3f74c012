"""Text DSL for pulse programs: parser and canonical formatter.

Grammar (keywords case-insensitive, ``#`` comments to end of line):

    program  := stmt*
    stmt     := pulse | bb1 | delay | repeat | acquire
    pulse    := "pulse" "theta=" angle "phase=" angle
    bb1      := "bb1" "theta=" angle
    delay    := "delay" number            (seconds, no unit)
    repeat   := "repeat" integer "{" stmt* "}"
    acquire  := "acquire"
    angle    := number ("pi" | "deg" | "rad")

Angles require an explicit unit so radians and turns cannot be silently
confused.  ``bb1`` statements expand to their four-pulse block at parse
time.  Every malformed program raises ``ParseError`` with a 1-based line
and column.  Domain rules (pulse angles, delay and repeat-count ranges,
the BB1 angle domain) are the sequence model's alone: the parser builds
each element and locates the model's ``ValueError`` at the statement's
value.

``format_program`` emits a canonical lowercase form whose reparse is
structurally equal to the input program: angles print in ``pi`` units
whenever that round-trips the stored float exactly, otherwise in ``rad``;
nested repeats indent by two spaces.
"""

from __future__ import annotations

import collections
import math
import re

from .sequence import (
    MAX_NESTING_DEPTH,
    Acquire,
    Delay,
    Pulse,
    PulseProgram,
    Repeat,
    SequenceElement,
    bb1_sequence,
)

__all__ = [
    "ParseError",
    "parse_program",
    "format_program",
    "parse_angle_literal",
    "program_to_ast",
    "ANGLE_UNITS",
]

ANGLE_UNITS = {"pi": math.pi, "deg": math.pi / 180.0, "rad": 1.0}


class ParseError(ValueError):
    """Syntax or domain error in DSL text, with its 1-based source location."""

    def __init__(self, message: str, text: str, offset: int):
        self.line = text.count("\n", 0, offset) + 1
        self.col = offset - text.rfind("\n", 0, offset)
        self.message = message
        super().__init__(f"line {self.line}, col {self.col}: {message}")


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>\#[^\n]*)
  | (?P<number>[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)(?P<unit>[A-Za-z_]\w*)?
  | (?P<ident>[A-Za-z_]\w*)
  | (?P<punct>[={}])
    """,
    re.VERBOSE,
)


# kind: "number" | "ident" | "=" | "{" | "}" | "eof"
_Token = collections.namedtuple("_Token", "kind text unit offset")


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", text, pos)
        kind = m.lastgroup
        if kind in ("number", "unit"):
            tokens.append(_Token("number", m.group("number"), m.group("unit"), pos))
        elif kind == "ident":
            tokens.append(_Token("ident", m.group(0), None, pos))
        elif kind == "punct":
            tokens.append(_Token(m.group(0), m.group(0), None, pos))
        pos = m.end()
    tokens.append(_Token("eof", "", None, pos))
    return tokens


def _scaled_angle(number: str, unit: str | None) -> float:
    if unit is None:
        raise ValueError("angle unit required (pi, deg, or rad)")
    scale = ANGLE_UNITS.get(unit.lower())
    if scale is None:
        raise ValueError(f"unknown angle unit {unit!r} (expected pi, deg, or rad)")
    return float(number) * scale


def parse_angle_literal(text: str) -> float:
    """Parse a unit-suffixed angle literal such as ``1pi``, ``90deg``, ``1.2rad``.

    Used for DSL angles and for command-line flag values.  Raises
    ``ValueError`` if the unit is missing or unknown.
    """
    m = _TOKEN_RE.fullmatch(text.strip())
    if m is None or m.group("number") is None:
        raise ValueError(f"malformed angle literal {text!r}")
    return _scaled_angle(m.group("number"), m.group("unit"))


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message: str, tok: _Token):
        raise ParseError(message, self.text, tok.offset)

    def build(self, tok: _Token, make, *args):
        """``make(*args)``, with the sequence model's ``ValueError`` located at ``tok``."""
        try:
            return make(*args)
        except ValueError as exc:
            self.fail(str(exc), tok)

    def expect_ident(self, name: str) -> _Token:
        tok = self.advance()
        if tok.kind != "ident" or tok.text.lower() != name:
            self.fail(f"expected {name!r}", tok)
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.advance()
        if tok.kind != kind:
            self.fail(f"expected {kind!r}", tok)
        return tok

    def angle(self) -> float:
        tok = self.advance()
        if tok.kind != "number":
            self.fail("expected an angle (number with pi/deg/rad unit)", tok)
        return self.build(tok, _scaled_angle, tok.text, tok.unit)

    def keyed_angle(self, key: str) -> tuple[float, _Token]:
        self.expect_ident(key)
        self.expect("=")
        tok = self.peek()
        return self.angle(), tok

    def plain_number(self) -> float:
        tok = self.advance()
        if tok.kind != "number":
            self.fail("expected a number", tok)
        if tok.unit is not None:
            self.fail("delay takes a plain number in seconds (no unit)", tok)
        return float(tok.text)

    def integer(self) -> int:
        tok = self.advance()
        if tok.kind != "number" or tok.unit is not None:
            self.fail("expected an integer", tok)
        if not re.fullmatch(r"[+-]?\d+", tok.text):
            self.fail("expected an integer", tok)
        return int(tok.text)

    def statements(self, depth: int) -> list[SequenceElement]:
        elements: list[SequenceElement] = []
        while True:
            tok = self.peek()
            if tok.kind in ("eof", "}"):
                return elements
            if tok.kind != "ident":
                self.fail("expected a statement keyword", tok)
            keyword = tok.text.lower()
            self.advance()
            if keyword == "pulse":
                theta, value = self.keyed_angle("theta")
                phase, _ = self.keyed_angle("phase")
                elements.append(self.build(value, Pulse, theta, phase))
            elif keyword == "bb1":
                theta, value = self.keyed_angle("theta")
                elements.extend(self.build(value, bb1_sequence, theta))
            elif keyword == "delay":
                value = self.peek()
                elements.append(self.build(value, Delay, self.plain_number()))
            elif keyword == "repeat":
                value = self.peek()
                count = self.integer()
                # bounds the parser's own recursion, before it recurses
                if depth + 1 > MAX_NESTING_DEPTH:
                    self.fail(f"nesting depth exceeds {MAX_NESTING_DEPTH}", tok)
                self.expect("{")
                body = self.statements(depth + 1)
                self.expect("}")
                elements.append(self.build(value, Repeat, count, body))
            elif keyword == "acquire":
                elements.append(Acquire())
            else:
                self.fail(f"unknown keyword {tok.text!r}", tok)


def parse_program(text: str, name: str = "") -> PulseProgram:
    """Parse DSL text into a ``PulseProgram``.

    Raises ``ParseError`` (with 1-based line and column) on lexical or
    syntax errors, unknown keywords, missing angle units and repeat
    nesting deeper than ``MAX_NESTING_DEPTH``.  Domain rules are the
    sequence model's: its ``ValueError`` is re-raised as a ``ParseError``
    at the statement's value.
    """
    parser = _Parser(text)
    elements = parser.statements(depth=0)
    tok = parser.peek()
    if tok.kind == "}":
        parser.fail("unmatched '}'", tok)
    return PulseProgram(tuple(elements), name=name)


def _format_angle(value: float) -> str:
    turns = value / math.pi
    if float(repr(turns)) * math.pi == value:
        return f"{turns!r}pi"
    return f"{value!r}rad"


def _format_elements(elements, indent: int, out: list[str]) -> None:
    pad = "  " * indent
    for el in elements:
        if isinstance(el, Pulse):
            out.append(f"{pad}pulse theta={_format_angle(el.theta)} phase={_format_angle(el.phi)}")
        elif isinstance(el, Delay):
            out.append(f"{pad}delay {el.tau!r}")
        elif isinstance(el, Repeat):
            out.append(f"{pad}repeat {el.count} {{")
            _format_elements(el.body, indent + 1, out)
            out.append(f"{pad}}}")
        else:
            out.append(f"{pad}acquire")


def format_program(p: PulseProgram) -> str:
    """Canonical DSL text; reparsing yields a structurally equal program."""
    out: list[str] = []
    _format_elements(p.elements, 0, out)
    return "\n".join(out) + ("\n" if out else "")


def _element_to_ast(el) -> dict:
    if isinstance(el, Pulse):
        return {"type": "pulse", "theta_rad": el.theta, "phase_rad": el.phi}
    if isinstance(el, Delay):
        return {"type": "delay", "tau_s": el.tau}
    if isinstance(el, Repeat):
        return {"type": "repeat", "count": el.count, "body": [_element_to_ast(b) for b in el.body]}
    return {"type": "acquire"}


def program_to_ast(p: PulseProgram) -> dict:
    """JSON-ready nested dict mirroring the program structure."""
    return {"name": p.name, "elements": [_element_to_ast(el) for el in p.elements]}
