import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from spinpulse import (
    Acquire,
    Delay,
    ParseError,
    Pulse,
    PulseProgram,
    Repeat,
    bb1_sequence,
    format_program,
    parse_program,
)
from spinpulse.dsl import parse_angle_literal
from oracles import random_program


def test_single_pulse():
    p = parse_program("pulse theta=1pi phase=0pi")
    assert p.elements == (Pulse(math.pi, 0.0),)


def test_bb1_expands_to_four_pulses():
    p = parse_program("bb1 theta=1pi")
    assert p.elements == tuple(bb1_sequence(math.pi))
    assert [round(e.phi / math.pi, 3) for e in p.elements] == [0.0, 0.580, 1.741, 0.580]


def test_repeat_with_delay_and_degrees():
    p = parse_program("repeat 2 { delay 1e-6 pulse theta=0.5pi phase=90deg }")
    assert p.elements == (Repeat(2, (Delay(1e-6), Pulse(math.pi / 2, math.pi / 2))),)


def test_acquire_and_comments():
    p = parse_program("# leading comment\nacquire # trailing\n")
    assert p.elements == (Acquire(),)


def test_keywords_and_units_case_insensitive():
    a = parse_program("PULSE Theta=1PI Phase=90DEG")
    b = parse_program("pulse theta=1pi phase=90deg")
    assert a == b


def test_canonical_output_is_lowercase():
    text = format_program(parse_program("PULSE Theta=1PI Phase=0RAD"))
    assert text == text.lower()
    assert "pulse theta=1.0pi" in text


def test_nested_repeat_indentation():
    p = parse_program("repeat 2 { repeat 3 { acquire } }")
    assert format_program(p) == "repeat 2 {\n  repeat 3 {\n    acquire\n  }\n}\n"


def test_missing_angle_unit_is_an_error():
    with pytest.raises(ParseError) as err:
        parse_program("pulse theta=1 phase=0")
    assert "angle unit required" in str(err.value)
    assert err.value.line == 1 and err.value.col == 13


def test_unknown_keyword_error_location():
    with pytest.raises(ParseError) as err:
        parse_program("acquire\nfrobnicate")
    assert err.value.line == 2 and err.value.col == 1
    assert "unknown keyword" in str(err.value)


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("pulse theta=1pi", "expected 'phase'"),
        ("pulse theta=-1pi phase=0pi", "theta must be >= 0"),
        ("pulse theta=1parsec phase=0pi", "unknown angle unit"),
        ("delay 1pi", "plain number in seconds"),
        ("delay -1", "delay must be >= 0"),
        ("repeat 0 { }", "count must be >= 1"),
        ("repeat 2 { acquire", "expected '}'"),
        ("repeat 2.5 { acquire }", "expected an integer"),
        ("bb1 theta=5pi", "[0, 4*pi]"),
        ("}", "unmatched '}'"),
        ("pulse theta=1pi phase=0pi $", "unexpected character"),
    ],
)
def test_error_cases_have_locations(text, fragment):
    with pytest.raises(ParseError) as err:
        parse_program(text)
    assert fragment in str(err.value)
    assert err.value.line >= 1 and err.value.col >= 1


def test_overflowing_delay_is_a_located_parse_error():
    with pytest.raises(ParseError) as err:
        parse_program("delay 1e999")
    assert err.value.line == 1 and err.value.col == 7
    with pytest.raises(ParseError) as err:
        parse_program("acquire\r\n  delay 1e999")
    assert err.value.line == 2 and err.value.col == 9


def test_depth_guard():
    ok = "repeat 2 { " * 16 + "acquire" + " }" * 16
    assert parse_program(ok) is not None
    too_deep = "repeat 2 { " * 17 + "acquire" + " }" * 17
    with pytest.raises(ParseError) as err:
        parse_program(too_deep)
    assert "nesting depth" in str(err.value)


def test_round_trip_examples():
    for text in (
        "pulse theta=1pi phase=0pi",
        "bb1 theta=1pi",
        "repeat 2 { delay 1e-6 pulse theta=0.5pi phase=90deg }",
        "acquire",
        "",
    ):
        p = parse_program(text)
        assert parse_program(format_program(p)) == p


def test_round_trip_seeded_random_programs():
    rng = random.Random(20240901)
    for _ in range(200):
        p = random_program(rng)
        assert parse_program(format_program(p)) == p


angle_values = st.floats(0.0, 4.0 * math.pi)
phase_values = st.floats(0.0, 2.0 * math.pi, exclude_max=True)


@st.composite
def programs(draw, depth=0):
    n = draw(st.integers(0, 4))
    elements = []
    for _ in range(n):
        kind = draw(st.sampled_from(["pulse", "delay", "acquire", "repeat"]))
        if kind == "repeat" and depth >= 3:
            kind = "pulse"
        if kind == "pulse":
            elements.append(Pulse(draw(angle_values), draw(phase_values)))
        elif kind == "delay":
            elements.append(Delay(draw(st.floats(0.0, 1.0))))
        elif kind == "acquire":
            elements.append(Acquire())
        else:
            body = draw(programs(depth=depth + 1)).elements
            elements.append(Repeat(draw(st.integers(1, 3)), body))
    return PulseProgram(tuple(elements))


@settings(max_examples=150, deadline=None)
@given(programs())
def test_round_trip_property(program):
    assert parse_program(format_program(program)) == program


def test_parse_angle_literal():
    assert parse_angle_literal("1pi") == math.pi
    assert parse_angle_literal("90deg") == pytest.approx(math.pi / 2)
    assert parse_angle_literal("1.2rad") == 1.2
    assert parse_angle_literal("-0.5pi") == -0.5 * math.pi
    with pytest.raises(ValueError):
        parse_angle_literal("1.0")
    with pytest.raises(ValueError):
        parse_angle_literal("abc")
    with pytest.raises(ValueError):
        parse_angle_literal("1turn")
