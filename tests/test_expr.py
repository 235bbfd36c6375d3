"""Parser, elaboration, and round-trip stability."""

from fractions import Fraction

import pytest

from weakid.expr import _MAX_NESTING, ParseError, parse, parse_poly
from weakid.freealg import (NcPoly, circ, comm, left_normed, render,
                            standard_poly, substitute)

x1, x2, x3, x4 = (NcPoly.variable(i) for i in range(1, 5))


def test_parse_examples():
    assert parse_poly("[x1,x2]") == comm(x1, x2)
    assert parse_poly("S4(x1,x2,x3,x4)") == standard_poly(4)
    assert parse_poly("o(x1,[x2,x3])") == circ(x1, comm(x2, x3))
    assert parse_poly("[[x1,x2],[x3,x4]]") == comm(comm(x1, x2), comm(x3, x4))


def test_variable_aliases():
    assert parse_poly("x") == x1
    assert parse_poly("y") == x2
    assert parse_poly("x2") == x2
    assert parse_poly("x17") == NcPoly.variable(17)


def test_ad_meaning():
    # ad(f, g, m) = m-fold [g, f, f, ...]
    assert parse_poly("ad(x, y, 3)") == left_normed(x2, x1, x1, x1)
    assert parse_poly("ad(x, y, 0)") == x2


def test_rationals_and_powers():
    assert parse_poly("3/2") == NcPoly.scalar(Fraction(3, 2))
    assert parse_poly("x1^3") == x1 * x1 * x1
    assert parse_poly("x1^0") == NcPoly.one()
    assert parse_poly("2*x1 - 1/2*x2") == 2 * x1 - Fraction(1, 2) * x2


def test_unary_minus():
    assert parse_poly("-x1") == -x1
    assert parse_poly("-x1 + x2") == x2 - x1


def test_nested_standard():
    assert parse_poly("S3(x1,x2,x3)") == standard_poly(3)
    assert parse_poly("S2([x1,x2],x3)") == substitute(
        standard_poly(2), {1: comm(x1, x2), 2: x3})


def test_whitespace_and_parens():
    assert parse_poly(" ( x1 + x2 ) * x3 ") == (x1 + x2) * x3


def test_errors_carry_positions():
    with pytest.raises(ParseError) as e:
        parse("x1 + @")
    assert e.value.line == 1 and e.value.col == 6

    with pytest.raises(ParseError) as e:
        parse("x1 +\n z1q")
    assert e.value.line == 2

    # Arabic-Indic three and one and a superscript two are digits to
    # str.isdigit, not to the grammar
    for src, col in (("\u0663", 1), ("x\u00b2", 2), ("x1 + \u0661", 6)):
        with pytest.raises(ParseError, match="unexpected character") as e:
            parse(src)
        assert (e.value.line, e.value.col) == (1, col)

    with pytest.raises(ParseError) as e:
        parse("[x1]")
    assert "at least 2" in str(e.value)

    with pytest.raises(ParseError) as e:
        parse("S4(x1,x2)")
    assert "4 arguments" in str(e.value)

    with pytest.raises(ParseError):
        parse("o(x1)")
    with pytest.raises(ParseError):
        parse("x1 *")
    with pytest.raises(ParseError):
        parse("ad(x1, x2, x3)")
    with pytest.raises(ParseError):
        parse("1/0")
    with pytest.raises(ParseError, match="indices start at 1"):
        parse("x0")
    with pytest.raises(ParseError, match="k >= 1"):
        parse("S0(x)")


@pytest.mark.parametrize("src, col", [("(" * 2000, _MAX_NESTING + 1),
                                      ("[" * 600, _MAX_NESTING + 1),
                                      ("o(" * 600, 2 * _MAX_NESTING + 2),
                                      ("[x," * 600, 3 * _MAX_NESTING + 1)],
                         ids=["paren", "bracket", "circle", "bracket-arg"])
def test_deep_nesting_is_a_parse_error(src, col):
    with pytest.raises(ParseError, match="nested deeper") as e:
        parse(src)
    assert e.value.col == col


def test_no_implicit_multiplication():
    with pytest.raises(ParseError):
        parse("[x1,x2][x3,x4]")


def test_size_caps():
    # the bounds are exact on these shapes, so each cap is met, then passed
    assert parse_poly("x^12") == x1 ** 12
    assert len(parse_poly("S6(x1,x2,x3,x4,x5,x6)").terms) == 720
    assert len(parse_poly("(x+y)^9").terms) == 512
    # a scalar base counts as degree 1
    assert parse_poly("2^12") == NcPoly.scalar(4096)
    assert parse_poly("x^6*2^6") == 64 * x1 ** 6
    for src in ("x^13", "x1*[x2,x3]^6", "(x+y)^10", "S7(x1,x2,x3,x4,x5,x6,x7)",
                "ad(x,y,10)", "o(x,y)^10", "2^100000000", "(x^0)^100000000",
                "((2^12)^12)^12", "(1/2)^13", "S1(3)^100000000"):
        with pytest.raises(ValueError, match="too large"):
            parse_poly(src)


def test_golden_round_trips():
    golden = [
        "[x1,x2]",
        "S4(x1,x2,x3,x4)",
        "o(x1,[x2,x3])",
        "[y,x]^2 + 1/2*[y,x,x]*x1",
        "ad(x, y, 3) - 2*ad(y, x, 2)",
        "[[x1,x2],[x3,x4]] + S3(x1,x2,x3)*x4",
    ]
    for src in golden:
        once = render(parse_poly(src))
        again = render(parse_poly(once))
        assert once == again
        assert parse_poly(once) == parse_poly(src)
