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
time.  Parse errors carry a 1-based line and column.

``format_program`` emits a canonical lowercase form whose reparse is
structurally equal to the input program: angles print in ``pi`` units
whenever that round-trips the stored float exactly, otherwise in ``rad``;
nested repeats indent by two spaces.
"""

from __future__ import annotations

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

__all__ = ["ParseError", "parse_program", "format_program", "parse_angle_literal", "program_to_ast"]

ANGLE_UNITS = {"pi": math.pi, "deg": math.pi / 180.0, "rad": 1.0}


class ParseError(ValueError):
    """Syntax or domain error in DSL text, with source location."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col
        self.message = message


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>[^\S\n]+)
  | (?P<comment>\#[^\n]*)
  | (?P<nl>\n)
  | (?P<number>[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)(?P<unit>[A-Za-z_]\w*)?
  | (?P<ident>[A-Za-z_]\w*)
  | (?P<punct>[={}])
    """,
    re.VERBOSE,
)


class _Token:
    __slots__ = ("kind", "text", "unit", "line", "col")

    def __init__(self, kind, text, unit, line, col):
        self.kind = kind  # "number" | "ident" | "=" | "{" | "}" | "eof"
        self.text = text
        self.unit = unit
        self.line = line
        self.col = col


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        start_line, start_col = line, col
        pos = m.end()
        if m.lastgroup == "unit":
            kind = "number"
        else:
            kind = m.lastgroup
        raw = m.group(0)
        if kind == "nl":
            line += 1
            col = 1
            continue
        col += len(raw)
        if kind in ("ws", "comment"):
            continue
        if kind == "number":
            tokens.append(
                _Token("number", m.group("number"), m.group("unit"), start_line, start_col)
            )
        elif kind == "ident":
            tokens.append(_Token("ident", raw, None, start_line, start_col))
        else:
            tokens.append(_Token(raw, raw, None, start_line, start_col))
    tokens.append(_Token("eof", "", None, line, col))
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
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message: str, tok: _Token | None = None):
        tok = tok or self.peek()
        raise ParseError(message, tok.line, tok.col)

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
        try:
            return _scaled_angle(tok.text, tok.unit)
        except ValueError as exc:
            self.fail(str(exc), tok)

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
            if keyword == "pulse":
                self.advance()
                theta, ttok = self.keyed_angle("theta")
                phase, _ = self.keyed_angle("phase")
                elements.append(self.build_pulse(theta, phase, ttok))
            elif keyword == "bb1":
                self.advance()
                theta, ttok = self.keyed_angle("theta")
                try:
                    elements.extend(bb1_sequence(theta))
                except ValueError as exc:
                    self.fail(str(exc), ttok)
            elif keyword == "delay":
                self.advance()
                ntok = self.peek()
                tau = self.plain_number()
                if tau < 0:
                    self.fail("delay must be >= 0", ntok)
                elements.append(Delay(tau))
            elif keyword == "repeat":
                self.advance()
                ntok = self.peek()
                count = self.integer()
                if count < 1:
                    self.fail("repeat count must be >= 1", ntok)
                if depth + 1 > MAX_NESTING_DEPTH:
                    self.fail(f"nesting depth exceeds {MAX_NESTING_DEPTH}", tok)
                self.expect("{")
                body = self.statements(depth + 1)
                self.expect("}")
                elements.append(Repeat(count, tuple(body)))
            elif keyword == "acquire":
                self.advance()
                elements.append(Acquire())
            else:
                self.fail(f"unknown keyword {tok.text!r}", tok)

    def build_pulse(self, theta: float, phase: float, tok: _Token) -> Pulse:
        try:
            return Pulse(theta, phase)
        except ValueError as exc:
            self.fail(str(exc), tok)


def parse_program(text: str, name: str = "") -> PulseProgram:
    """Parse DSL text into a ``PulseProgram``.

    Raises ``ParseError`` (with 1-based line and column) on lexical or
    syntax errors, unknown keywords, missing angle units, domain
    violations and repeat nesting deeper than ``MAX_NESTING_DEPTH``.
    """
    parser = _Parser(_tokenize(text))
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
        elif isinstance(el, Acquire):
            out.append(f"{pad}acquire")
        else:
            raise TypeError(f"unknown sequence element {el!r}")


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
    if isinstance(el, Acquire):
        return {"type": "acquire"}
    raise TypeError(f"unknown sequence element {el!r}")


def program_to_ast(p: PulseProgram) -> dict:
    """JSON-ready nested dict mirroring the program structure."""
    return {"name": p.name, "elements": [_element_to_ast(el) for el in p.elements]}
