import io
import re
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reeb
from reeb import (ParseError, ValidationError, as_rational, format_rational,
                  parse_rational)
from reeb.cli import main
from reeb.rationals import EXPONENT_LIMIT, as_radius, scaled


def test_as_rational_passthrough_and_ints():
    assert as_rational(Fraction(3, 4)) == Fraction(3, 4)
    assert as_rational(7) == Fraction(7)
    assert as_rational(-2) == Fraction(-2)


def test_as_rational_strings():
    assert as_rational("3/4") == Fraction(3, 4)
    assert as_rational("-1.25") == Fraction(-5, 4)
    assert as_rational(" 2 ") == Fraction(2)


def test_as_rational_rejects_floats_and_bools():
    with pytest.raises(ParseError):
        as_rational(0.5)
    with pytest.raises(ParseError):
        as_rational(True)
    with pytest.raises(ParseError):
        as_rational(None)


def test_parse_rational_errors():
    with pytest.raises(ParseError):
        parse_rational("")
    with pytest.raises(ParseError):
        parse_rational("   ")
    with pytest.raises(ParseError):
        parse_rational("7/0")
    with pytest.raises(ParseError):
        parse_rational("x/2")


def fraction_reading(token):
    """What parse_rational returned before its integer fast path:
    Fraction(str) on the stripped token, its errors as ParseError, once a
    token ending in an exponent beyond EXPONENT_LIMIT in magnitude is
    refused (Fraction would build the whole power of ten), and a value
    whose numerator or denominator has more than EXPONENT_LIMIT digits
    is refused (it could not be written back)."""
    token = token.strip()
    if not token:
        raise ParseError("empty rational token")
    try:
        _, e, exp = token.replace("E", "e").rpartition("e")
        if e and re.fullmatch(r"[-+]?\d+(_\d+)*", exp) and abs(int(exp)) > EXPONENT_LIMIT:
            raise ParseError(f"bad rational token {token!r}: exponent beyond "
                             f"{EXPONENT_LIMIT} in magnitude")
        value = Fraction(token)
        if max(abs(value.numerator), value.denominator) >= 10 ** EXPONENT_LIMIT:
            raise ParseError(f"bad rational token {token!r}: more than "
                             f"{EXPONENT_LIMIT} digits")
        return value
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational token {token!r}: {exc}") from None


HAND_ON = ["+3", "1_0", "\u0663", "\u00b2", "1/\u0663", "1/\u00b2", " 5 ", "1e3",
           "2.5", "1/0", "-0/0", "3/-4", "-", "--3", "1/2/3", "/2", "1/", "-0",
           "007/010", "-12/000", "", " ", "7" * 5000, "-" + "7" * 5000,
           "1/" + "3" * 5000, "1e4300", "-2.5E-4300", "1e+4301", "1e4_301",
           "1/2e9999", "1e 9999", "1e" + "9" * 5000]
digit_runs = st.text("0123456789", min_size=1, max_size=30)


def reads_as_fraction_does(token):
    try:
        expected = fraction_reading(token)
    except ParseError as exc:
        with pytest.raises(ParseError) as info:
            parse_rational(token)
        assert str(info.value) == str(exc)
    else:
        got = parse_rational(token)
        assert type(got) is Fraction and got == expected


@pytest.mark.parametrize("token", HAND_ON, ids=lambda t: repr(t[:12]))
def test_parse_rational_hands_on_what_int_must_not_read(token):
    reads_as_fraction_does(token)


@settings(deadline=None, max_examples=300)
@given(st.one_of(
    st.builds(lambda sign, n: sign + n, st.sampled_from(["", "-"]), digit_runs),
    st.builds(lambda sign, n, d: f"{sign}{n}/{d}", st.sampled_from(["", "-"]),
              digit_runs, digit_runs),
    st.text("0123456789-+/._e \u0663", max_size=12)))
def test_parse_rational_reads_as_fraction_does(token):
    reads_as_fraction_does(token)


def test_format_rational():
    assert format_rational(Fraction(5)) == "5"
    assert format_rational(Fraction(-3, 4)) == "-3/4"
    assert format_rational(Fraction(6, 4)) == "3/2"
    assert format_rational(Fraction(0)) == "0"


def test_format_rational_takes_ints_as_they_are():
    assert format_rational(7) == "7" and format_rational(-2) == "-2"


@pytest.mark.parametrize("value,digits", [
    (Fraction(10 ** 4300), 4301), (Fraction(1, 7 * 10 ** 4300), 4301),
    (-(10 ** 5000), 5001)], ids=["numerator", "denominator", "int"])
def test_a_value_too_long_to_write_names_its_digit_count(value, digits):
    with pytest.raises(ValidationError) as info:
        format_rational(value)
    assert str(info.value) == f"value of {digits} digits is too long to write as text"


def test_scaled_puts_rationals_on_integers_over_their_common_denominator():
    xs = [Fraction(1, 7), Fraction(-2, 9), Fraction(3, 10), Fraction(4), Fraction(1, 2)]
    scale, ints = scaled(xs)
    assert scale == 630
    assert ints == [90, -140, 189, 2520, 315]
    assert [Fraction(n, scale) for n in ints] == xs
    assert scaled([]) == (1, [])
    assert scaled([Fraction(5)]) == (1, [5])


def test_roundtrip():
    for tok in ("0", "17/12", "-5/3", "4"):
        assert format_rational(parse_rational(tok)) == tok


def test_as_radius_coerces_and_rejects_negatives():
    assert as_radius("3/4", "smoothing") == Fraction(3, 4)
    assert as_radius(0, "smoothing") == 0
    with pytest.raises(ValidationError, match="^expansion radius must be nonnegative$"):
        as_radius(Fraction(-1, 4), "expansion")
    with pytest.raises(ParseError):
        as_radius(0.5, "smoothing")


@pytest.mark.parametrize("call, message", [
    (lambda: reeb.smooth_naive(reeb.line(), -1), "smoothing"),
    (lambda: reeb.smooth_sweep(reeb.line(), -1), "smoothing"),
    (lambda: reeb.compose_smoothings(reeb.line(), 1, -1), "smoothing"),
    (lambda: reeb.smooth_cosheaf(reeb.reeb_cosheaf(reeb.line()), -1), "smoothing"),
    (lambda: reeb.expand(reeb.interval(0, 1), -1), "expansion"),
    (lambda: reeb.search_certificate(reeb.line(), reeb.line(), -1), "interleaving"),
    (lambda: reeb.contract_certificate(
        reeb.self_certificate(reeb.line(), 0), -1), "smoothing"),
], ids=["smooth_naive", "smooth_sweep", "compose_smoothings", "smooth_cosheaf",
        "expand", "search_certificate", "contract_certificate"])
def test_negative_radii_are_rejected_by_name(call, message):
    with pytest.raises(ValidationError, match=f"^{message} radius must be nonnegative$"):
        call()


HUGE = ["1e9999999999", "-1e-99999999"]


def quickly(thunk):
    """What thunk() returns, after checking that the least of three wall
    times it took is under 10 ms: a huge exponent is refused before any
    power of ten is built."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        result = thunk()
        times.append(time.perf_counter() - start)
    assert min(times) < 0.01, times
    return result


def refusal(call, *args):
    with pytest.raises(ParseError) as info:
        call(*args)
    return str(info.value)


@pytest.mark.parametrize("token", HUGE)
def test_huge_exponents_are_refused_quickly_at_every_entry(token, tmp_path):
    why = f"bad rational token {token!r}: exponent beyond 4300 in magnitude"
    graph = f"vertex a 0\nvertex b {token}\nedge e a b\n"
    assert quickly(lambda: refusal(parse_rational, token)) == why
    assert quickly(lambda: refusal(as_rational, token)) == why
    assert quickly(lambda: refusal(reeb.parse_rgraph, graph)) == f"line 2: {why}"
    assert quickly(lambda: refusal(reeb.parse_field, f"v a 0\n\nv b {token}\n")) \
        == f"line 3: {why}"
    path = tmp_path / "g.txt"
    path.write_text(graph)

    def validate():
        out, err = io.StringIO(), io.StringIO()
        code = main(["validate", str(path)], stdout=out, stderr=err)
        return code, out.getvalue(), err.getvalue()

    assert quickly(validate) == (1, "", f"error: line 2: {why}\n")
