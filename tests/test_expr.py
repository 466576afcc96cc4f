from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import F_POOL, Z_POOL, random_expression
from resalg import expr, symplectic
from resalg.expr import (
    DomainError,
    Expr,
    Generator,
    ParseError,
    adjoint,
    derivation,
    identity,
    parse,
    resolvent,
    scalar,
    simplify,
    to_string,
    zero,
)

R10 = "R(1,[1,0])"


# ---------------------------------------------------------------------------
# parsing


def test_parse_single_generator():
    e = parse(R10)
    assert e.terms == ((1.0 + 0.0j, (Generator(1.0, (1.0, 0.0)),)),)


def test_parse_is_whitespace_insensitive():
    assert parse("R( 1 , [ 1 , 0 ] ) * R(2,[0,1])") == parse("R(1,[1,0])*R(2,[0,1])")


def test_parse_scalars():
    assert parse("2.5") == scalar(2.5)
    assert parse("1i") == scalar(1j)
    assert parse("2+3i") == scalar(2 + 3j)
    assert parse("2-3i") == scalar(2 - 3j)
    assert parse("-4") == scalar(-4.0)
    assert parse("0") == zero()
    assert parse("I") == identity()
    assert parse("2 - 2") == zero()
    assert parse("2*3") == scalar(6.0)


def test_parse_complex_spectral_parameter():
    e = parse("R(1+2i,[1,0])")
    assert e.terms[0][1][0].z == 1 + 2j
    e = parse("R(-0.5-1i,[0,1])")
    assert e.terms[0][1][0].z == -0.5 - 1j


def test_parse_vector_entries():
    e = parse("R(1,[-1,0.5,0,2e-3])")
    assert e.terms[0][1][0].f == (-1.0, 0.5, 0.0, 2e-3)


def test_parse_powers():
    assert parse("R(1,[1,0])^2") == parse("R(1,[1,0])*R(1,[1,0])")
    assert parse("R(1,[1,0])^0") == identity()
    assert parse("R(1,[1,0])^3") == resolvent(1, (1, 0)) ** 3


def _power_by_products(e: Expr, n: int) -> Expr:
    out = identity()
    for _ in range(n):
        out = out * e
    return out


def _bits(e: Expr):
    # repr tells -0.0 from 0.0, which == does not
    return [(repr(c), w) for c, w in e.terms]


def test_one_term_power_keeps_the_bits_of_repeated_products():
    # seeded one-term bases, signed zeros, coefficients that underflow or
    # overflow on the way, and words of zero to three letters
    rng = np.random.default_rng(17)
    parts = (0.0, -0.0, 1.0, -1.0, 1e-300, -3e200, float("inf"), float("nan"))
    for trial in range(300):
        if trial % 3:
            coeff = complex(*rng.standard_normal(2) * 10.0 ** rng.integers(-3, 4))
        else:
            coeff = complex(*rng.choice(parts, 2))
        word = tuple(Generator(Z_POOL[i], F_POOL[j])
                     for i, j in rng.integers(0, 4, (rng.integers(0, 4), 2)))
        base = Expr(((coeff, word),))
        if len(base.terms) != 1:
            continue
        for n in (0, 1, 2, 3, int(rng.integers(4, 40))):
            if n * max(1, len(word)) > expr.POWER_LIMIT:
                continue
            assert _bits(base**n) == _bits(_power_by_products(base, n)), (coeff, word, n)
    power = resolvent(1, (1, 0)) ** expr.POWER_LIMIT
    assert _bits(power) == _bits(_power_by_products(resolvent(1, (1, 0)), expr.POWER_LIMIT))


def test_power_past_the_limit_is_a_parse_error_at_its_exponent():
    # one letter: POWER_LIMIT letters expand, and print as a power that
    # parses back; one more is refused before any expansion
    limit = expr.POWER_LIMIT
    e = parse(f"R(1,[1,0])^{limit}")
    assert to_string(e) == f"R(1,[1,0])^{limit}" and parse(to_string(e)) == e
    for text, position in ((f"R(1,[1,0])^{limit + 1}", 11), ("R(1,[1,0])^1e12", 11),
                           ("2 + I^1e12", 6), ("(R(1,[1,0])+R(2,[0,1]))^16", 24),
                           ("(R(1,[1,0])^32)^33", 16)):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert err.value.position == position, text
        assert f"{limit} terms x letters" in str(err.value)
    # two words of one letter: 2^k terms of k letters
    assert len(parse("(R(1,[1,0])+R(2,[0,1]))^7").terms) == 2 ** 7
    with pytest.raises(ParseError):
        parse("(R(1,[1,0])+R(2,[0,1]))^8")
    with pytest.raises(ValueError):
        resolvent(1, (1, 0)) ** (limit + 1)


def test_parse_adjoint_keyword():
    assert parse("adj(R(1,[1,0]))") == resolvent(-1, (1, 0))
    assert parse("adj(R(1+2i,[1,0]))") == resolvent(-1 + 2j, (1, 0))


def test_parse_parentheses_and_precedence():
    e1 = parse("(R(1,[1,0]) + R(2,[1,0])) * R(3,[0,1])")
    e2 = parse("R(1,[1,0])*R(3,[0,1]) + R(2,[1,0])*R(3,[0,1])")
    assert e1 == e2


def test_parse_error_positions():
    with pytest.raises(ParseError) as err:
        parse("R(1,[1,0]")
    assert err.value.position == 9
    with pytest.raises(ParseError) as err:
        parse("Q(1,[1,0])")
    assert err.value.position == 0
    with pytest.raises(ParseError) as err:
        parse("")
    assert err.value.position == 0
    with pytest.raises(ParseError) as err:
        parse("1 + ")
    assert err.value.position == 4
    with pytest.raises(ParseError) as err:
        parse("R(1,[1,0]) R(2,[1,0])")
    assert err.value.position == 11
    with pytest.raises(ParseError):
        parse("R(1,[1,0])^-2")
    with pytest.raises(ParseError):
        parse("R(1,[1,0])^1.5")
    with pytest.raises(ParseError):
        parse("R(1,[1i,0])")


def test_parse_rejects_overflowing_literals():
    for text in ("1e400*R(1,[1,0])", "R(1e999,[1,0])", "R(1,[1e400,0])", "2e308i"):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert "overflows" in str(err.value)
    # underflow to zero is a finite literal
    assert parse("1e-400") == parse("0")


def test_domain_error_on_imaginary_axis():
    with pytest.raises(DomainError) as err:
        parse("R(2i,[1,0])")
    assert "R(0+2i,[1,0])" in str(err.value)
    with pytest.raises(DomainError):
        parse("R(0,[1,0])")
    with pytest.raises(DomainError):
        Generator(3j, (1.0, 0.0))


# ---------------------------------------------------------------------------
# printing


def test_print_round_trip_fixed_cases():
    for text in (
        "R(1,[1,0])",
        "0.5*I",
        "(0+1i)*R(2,[0,1])",
        "R(1,[1,0])^2",
        "R(0.1,[0.2,0.3])",
        "-1*R(-1,[1,0])",
        "(2-3i)*I + R(1,[1,0])*R(2,[0,1])",
    ):
        e = parse(text)
        assert to_string(e) == text
        assert parse(to_string(e)) == e


def test_print_zero():
    assert to_string(zero()) == "0"
    assert parse("0") == zero()


def test_print_collapses_adjacent_powers():
    e = parse("R(1,[1,0])*R(1,[1,0])*R(1,[1,0])")
    assert to_string(e) == "R(1,[1,0])^3"


# ---------------------------------------------------------------------------
# rewriting oracles (hand-derived)


def test_r1_pair_rewrite():
    # R(1,f)R(2,f) -> (i(2-1))^-1 (R(1,f) - R(2,f)) = -i R(1,f) + i R(2,f)
    e = simplify(parse("R(1,[1,0])*R(2,[1,0])"))
    assert e.terms == (
        (complex(-0.0, -1.0), (Generator(1.0, (1.0, 0.0)),)),
        (complex(0.0, 1.0), (Generator(2.0, (1.0, 0.0)),)),
    )
    assert to_string(e) == "(0-1i)*R(1,[1,0]) + (0+1i)*R(2,[1,0])"


def test_r1_does_not_touch_same_parameter():
    e = simplify(parse("R(1,[1,0])^2"))
    assert len(e.terms) == 1
    assert len(e.terms[0][1]) == 2


def test_r1_skips_non_adjacent_letters():
    e = parse("R(1,[1,0])*R(1,[0,1])*R(2,[1,0])")
    assert simplify(e) == e


def test_r1_chain_partial_fractions():
    # R(1,f)R(2,f)R(3,f) = sum_j c_j R(j,f), c_j = prod_{k!=j} (i(z_k - z_j))^-1
    # c_1 = -1/2, c_2 = 1, c_3 = -1/2
    e = simplify(parse("R(1,[1,0])*R(2,[1,0])*R(3,[1,0])"))
    coeffs = {w[0].z: c for c, w in e.terms}
    assert set(coeffs) == {1.0, 2.0, 3.0}
    assert coeffs[1.0] == pytest.approx(-0.5, abs=1e-15)
    assert coeffs[2.0] == pytest.approx(1.0, abs=1e-15)
    assert coeffs[3.0] == pytest.approx(-0.5, abs=1e-15)


def test_r2_zero_vector():
    e = simplify(parse("R(3,[0,0])"))
    assert e == scalar(1.0 / (3j))
    assert to_string(e) == "(0-0.3333333333333333i)*I"


def test_r2_inside_word():
    e = simplify(parse("R(2,[1,0])*R(5,[0,0])"))
    assert e == scalar(1.0 / 5j) * resolvent(2, (1, 0))


def test_r3_scaling():
    # c = 2: R(2,2f) -> (1/2) R(1,f)
    e = simplify(parse("R(2,[2,0])"))
    assert e == scalar(0.5) * resolvent(1.0, (1.0, 0.0))
    assert to_string(e) == "0.5*R(1,[1,0])"


def test_r3_negative_leading_sign():
    # c = -1: R(1,-f) -> -R(-1,f)
    e = simplify(parse("R(1,[-1,0])"))
    assert e == scalar(-1.0) * resolvent(-1.0, (1.0, 0.0))


def test_r3_mixed_vector():
    e = simplify(parse("R(1,[0,-2])"))
    assert e == scalar(-0.5) * resolvent(-0.5, (0.0, 1.0))


def test_r3_leaves_unit_vectors_alone():
    e = parse("R(1,[1,0])*R(1,[0,1])")
    assert simplify(e) == e


def test_simplify_merges_and_cancels():
    e = parse("R(1,[1,0]) + R(1,[1,0])")
    assert simplify(e) == scalar(2.0) * resolvent(1, (1, 0))
    assert simplify(parse("R(1,[1,0]) - R(1,[1,0])")) == zero()


def test_simplify_drops_cancellation_residue():
    # same normal form reached along two routes; difference collapses to zero
    a = simplify(parse("R(1,[1,0])*R(2,[1,0])*R(3,[1,0])"))
    b = simplify(parse("R(3,[1,0])*R(2,[1,0])*R(1,[1,0])"))
    assert simplify(a - b) == zero()


def test_equal_symbolic():
    a = parse("R(1,[1,0])*R(2,[1,0])")
    b = parse("R(2,[1,0])*R(1,[1,0])")
    assert simplify(a - b).is_zero()
    # different directions do not commute via the one-parameter rules
    c = parse("R(1,[1,0])*R(1,[0,1])")
    d = parse("R(1,[0,1])*R(1,[1,0])")
    assert not simplify(c - d).is_zero()


def test_adjoint_letter_map():
    e = parse("R(1+2i,[1,0])*R(3,[0,1])")
    expected = resolvent(-3, (0, 1)) * resolvent(-1 + 2j, (1, 0))
    assert adjoint(e) == expected


def test_adjoint_antilinear():
    e = scalar(2 + 3j) * resolvent(1, (1, 0))
    assert adjoint(e) == scalar(2 - 3j) * resolvent(-1, (1, 0))


def test_adjoint_fixed_point_of_selfadjoint_parameter():
    # R(z)* = R(-conj z): real lambda maps to -lambda
    assert adjoint(resolvent(2.0, (1, 0))) == resolvent(-2.0, (1, 0))


# ---------------------------------------------------------------------------
# derivation


def test_derivation_single_letter():
    space = symplectic.standard_space(1)
    e = resolvent(2.0, (0.0, 1.0))
    out = derivation(space, (1.0, 0.0), e)
    g = Generator(2.0, (0.0, 1.0))
    assert out.terms == ((1.0 + 0.0j, (g, g)),)


def test_derivation_kills_parallel_direction():
    space = symplectic.standard_space(1)
    e = resolvent(2.0, (1.0, 0.0))
    assert derivation(space, (1.0, 0.0), e) == zero()


def test_derivation_leibniz():
    space = symplectic.standard_space(1)
    f = (1.0, 0.0)
    g = Generator(1.0, (0.0, 1.0))
    h = Generator(2.0, (1.0, 1.0))
    e = Expr(((1.0 + 0j, (g, h)),))
    out = derivation(space, f, e)
    s_g = symplectic.pair(space, f, g.f)
    s_h = symplectic.pair(space, f, h.f)
    expected = Expr(((s_g, (g, g, h)), (s_h, (g, h, h))))
    assert out == expected


def test_derivation_dimension_mismatch():
    space = symplectic.standard_space(2)
    with pytest.raises(ValueError):
        derivation(space, (1.0, 0.0, 0.0, 0.0), resolvent(1.0, (1.0, 0.0)))


def test_derivations_commute():
    space = symplectic.standard_space(1)
    rng = np.random.default_rng(7)
    f, g = (1.0, 0.5), (-0.25, 2.0)
    for _ in range(20):
        e = random_expression(rng)
        ab = derivation(space, f, derivation(space, g, e))
        ba = derivation(space, g, derivation(space, f, e))
        assert simplify(ab - ba) == zero()


# ---------------------------------------------------------------------------
# algebraic properties on random expressions


def exprs():
    letter = st.builds(
        Generator,
        z=st.sampled_from(Z_POOL),
        f=st.sampled_from(F_POOL),
    )
    word = st.lists(letter, min_size=0, max_size=4).map(tuple)
    coeff = st.complex_numbers(
        min_magnitude=0, max_magnitude=4, allow_nan=False, allow_infinity=False
    )
    term = st.tuples(coeff, word)
    return st.lists(term, min_size=1, max_size=3).map(lambda t: Expr(tuple(t)))


@settings(deadline=None, max_examples=120)
@given(e=exprs())
def test_simplify_idempotent(e):
    s = simplify(e)
    assert simplify(s) == s


@settings(deadline=None, max_examples=120)
@given(e=exprs())
def test_adjoint_involution(e):
    assert adjoint(adjoint(e)) == e


@settings(deadline=None, max_examples=120)
@given(e=exprs())
# a coefficient far below any absolute cancellation cutoff: the two reduction
# orders must still keep the same terms
@example(
    e=Expr(((2.7003803174354097e-176, parse("R(1,[1,0])*R(2,[1,0])*R(-1,[1,0])").terms[0][1]),))
)
# a subnormal coefficient: the two orders leave sums of +-5e-324, below the
# relative cutoff's underflow, which CANCEL_FLOOR cancels
@example(
    e=Expr(((2.2250738585e-313 + 0j, parse("R(1,[1,0])*R(2,[1,0])*R(-2+0.5i,[1,0])").terms[0][1]),))
)
def test_adjoint_commutes_with_simplify(e):
    # different reduction orders may round final ulps differently, so the
    # comparison goes through the rewriter rather than bit equality
    a = simplify(adjoint(e))
    b = adjoint(simplify(e))
    assert simplify(a - b).is_zero()


@settings(deadline=None, max_examples=120)
@given(e=exprs())
def test_print_parse_round_trip(e):
    assert parse(to_string(e)) == e
    s = simplify(e)
    assert parse(to_string(s)) == s


@settings(deadline=None, max_examples=60)
@given(e=exprs())
def test_simplify_strictly_reduces_measure(e):
    def measure(x):
        return sum(3 ** len(w) for _, w in x.terms)

    assert measure(simplify(e)) <= measure(e) or not e.terms
