import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from oracles import poly_from_json
from qlink.laurent import (
    LaurentPoly,
    div_exact,
    phase_mul,
    poly_to_json,
    qfact,
    qint,
    subst_x_iv,
)
from qlink.tensorop import Shape, identity

V = LaurentPoly.v_power
Q = LaurentPoly.q_power
C = LaurentPoly.const


class TestCoefficients:
    def test_ints_enter_only_through_constructors(self):
        # `not p` is the zero test, and only a constructor reads an int (as
        # the constant).  An int operand raises TypeError, a polynomial equals
        # no int and has no hash, and an operator takes no `+`, `*` or `@`.
        assert not LaurentPoly({3: 0})
        assert LaurentPoly({0: 2, 1: 0}) * C(2) == C(4) == LaurentPoly({0: 4})
        one, s = LaurentPoly.one(), Shape.of(1, 2)
        assert (one == 1) is False and one != 1 and LaurentPoly.zero() != 0
        refused = [
            lambda: one + 1,
            lambda: 1 + one,
            lambda: one - 1,
            lambda: one * 2,
            lambda: 2 * one,
            lambda: hash(one),
            lambda: identity(s) + identity(s),
            lambda: 2 * identity(s),
            lambda: identity(s) * one,
            lambda: identity(s) @ identity(s),
        ]
        for attempt in refused:
            with pytest.raises(TypeError):
                attempt()

    def test_non_int_coefficient_rejected(self):
        with pytest.raises(TypeError):
            LaurentPoly({0: Fraction(1, 2)})
        with pytest.raises(TypeError):
            LaurentPoly({2: Fraction(1)})
        with pytest.raises(TypeError):
            V(1) * Fraction(1, 2)

    def test_non_int_exponent_rejected(self):
        with pytest.raises(TypeError):
            LaurentPoly({0.5: 1})
        with pytest.raises(TypeError):
            LaurentPoly({1.0: 1})
        with pytest.raises(TypeError):
            LaurentPoly.const(1) + LaurentPoly({"1": 1})

    def test_immutability(self):
        with pytest.raises(AttributeError):
            V(1).terms = {}


class TestArithmetic:
    def test_additive_identity(self):
        p = Q(1) + Q(-1)
        assert p + LaurentPoly.zero() == p

    def test_cancellation(self):
        assert V(2) + (-V(2)) == LaurentPoly.zero()
        assert not V(2) - V(2)

    def test_scalar_doubling(self):
        assert qint(2) + qint(2) == LaurentPoly({2: 2, -2: 2})

    def test_square_of_quantum_two(self):
        # Hand expansion: (v^2 + v^-2)^2 = v^4 + 2 + v^-4 = [3] + [1].
        assert qint(2) * qint(2) == LaurentPoly({4: 1, 0: 2, -4: 1})
        assert qint(2) * qint(2) == qint(3) + qint(1)

    def test_multiplicative_identity_and_units(self):
        p = qint(5) * C(3)
        assert p * LaurentPoly.one() == p
        assert V(1) * V(-1) == LaurentPoly.one()

    def test_negative_power_is_refused(self):
        # v^-k is v_power(-k); no polynomial is raised to a negative power.
        assert qint(2) ** 0 == LaurentPoly.one()
        for base in (V(3), -V(3), qint(2)):
            with pytest.raises(ValueError, match="negative power -1"):
                base ** -1


class TestQCombinatorics:
    def test_qint_small(self):
        assert qint(1) == LaurentPoly.one()
        assert qint(2) == V(2) + V(-2)
        assert qint(4) == V(6) + V(2) + V(-2) + V(-6)
        assert qint(3, -5) == qint(3) * V(-5)

    def test_qint_negative_and_zero(self):
        assert not qint(0)
        assert qint(-3) == -qint(3)
        assert qint(-2, 1) == -qint(2) * V(1)
        assert not qint(0, 4)

    def test_qfact(self):
        assert qfact(0) == LaurentPoly.one()
        assert qfact(1) == LaurentPoly.one()
        # [3][2][1] expanded by hand.
        assert qfact(3) == LaurentPoly({6: 1, 2: 2, -2: 2, -6: 1})
        with pytest.raises(ValueError):
            qfact(-1)

    def test_fusion_rule_for_loop_dimensions(self):
        for ta in range(11):
            for tb in range(11):
                rhs = LaurentPoly.zero()
                for tc in range(abs(ta - tb), ta + tb + 1, 2):
                    rhs = rhs + qint(tc + 1)
                assert qint(ta + 1) * qint(tb + 1) == rhs


class TestSubstitutions:
    def test_bar_fixes_palindromes(self):
        assert qint(2).bar() == qint(2)
        assert V(3).bar() == V(-3)
        assert qint(3).bar() == qint(3)

    def test_bar_of_product(self):
        a, b = qint(3) + V(1), V(5) - qint(2)
        assert (a * b).bar() == a.bar() * b.bar()

    def test_x_to_iv(self):
        assert subst_x_iv(V(2)) == -V(2)  # x^2 -> -v^2
        assert subst_x_iv(-V(2) - V(-2)) == qint(2)  # the loop value
        assert subst_x_iv(LaurentPoly({-4: 3})) == LaurentPoly({-4: 3})  # x^-4 -> v^-4

    def test_phase(self):
        p = qint(3)
        assert phase_mul(p, 0) == p
        assert phase_mul(LaurentPoly.one(), 2) == LaurentPoly.const(-1)
        # One positive kink: x -> iv of -x^3 times the phase -i lands on v^3.
        assert phase_mul(-V(3), 1) == V(3)
        assert phase_mul(-V(3), -1) == -V(3)

    def test_complex_residue_rejected(self):
        # -x^3 -> i v^3 has no integral value without a writhe phase.
        with pytest.raises(ArithmeticError, match="complex residue"):
            subst_x_iv(-V(3))
        with pytest.raises(ArithmeticError, match="complex residue"):
            phase_mul(qint(2), 1)

    def test_phase_is_an_involution(self):
        # The bracket is read back off the invariant value by the same map.
        rng = random.Random(28)
        accepted = rejected = 0
        for _ in range(300):
            # Exponents of one parity half the time, so both outcomes occur.
            parity = rng.choice((0, 1, None))
            exps = [2 * rng.randint(-6, 6) + (rng.randint(0, 1) if parity is None else parity) for _ in range(5)]
            p = LaurentPoly({e: rng.randint(-5, 5) for e in exps})
            w = rng.randint(-9, 9)
            try:
                image = phase_mul(p, w)
            except ArithmeticError:
                rejected += 1
                continue
            accepted += 1
            assert phase_mul(image, w) == p, (p, w)
        assert accepted > 50 and rejected > 50


class TestDivision:
    def test_exact_quotients(self):
        assert div_exact(qint(2) * qint(3), qint(3)) == qint(2)
        assert div_exact(Q(4) - Q(-4), Q(1) - Q(-1)) == qint(4)

    def test_inexact_rejected(self):
        with pytest.raises(ValueError):
            div_exact(qint(3), qint(2))

    def test_integer_remainder_rejected(self):
        assert div_exact(qint(2) * C(6), qint(2) * C(-3)) == C(-2)
        with pytest.raises(ValueError):
            div_exact(LaurentPoly.const(3), LaurentPoly.const(2))
        with pytest.raises(ValueError):
            div_exact(qint(2), C(2))

    def test_zero_dividend(self):
        assert div_exact(LaurentPoly.zero(), qint(2)) == LaurentPoly.zero()

    def test_zero_divisor_rejected(self):
        with pytest.raises(ZeroDivisionError):
            div_exact(qint(2), LaurentPoly.zero())


def _qpoch(a: LaurentPoly, k: int) -> LaurentPoly:
    """The q-Pochhammer (a; q^2)_k = prod_{i<k} (1 - a q^(2i))."""
    out = LaurentPoly.one()
    for i in range(k):
        out = out * (LaurentPoly.one() - a * Q(2 * i))
    return out


class TestTruncatedSeries:
    def test_terminating_series_sums_to_weight_power(self):
        # The diagonal entries of the weighted first-leg trace of a braiding
        # reduce to this terminating sum; its closed form is a pure q-power.
        for tj in range(0, 9):
            for tm in range(tj, -tj - 1, -2):
                n = (tj - tm) // 2
                if n > 8:
                    continue
                b = Q(tj + tm + 2)  # q^(2(j+m+1))
                total = LaurentPoly.zero()
                for k in range(n + 1):
                    numer = _qpoch(Q(-2 * n), k) * _qpoch(b, k) * Q(2 * k)
                    total = total + div_exact(numer, _qpoch(Q(2), k))
                expected = V(tj * (tj + 2) - tm * (tm + 2))
                assert total == expected, (tj, tm)


class TestSerialization:
    def test_json_round_trip(self):
        p = qint(5) * C(-7) + V(-9) + LaurentPoly({4: 1 << 70})
        data = poly_to_json(p)
        assert data == sorted(data)
        assert [0, -7, 1, 0, 1] in data
        assert poly_from_json(data) == p

    def test_non_integer_row_rejected(self):
        for row in ([0, 1, 2, 0, 1], [0, 1, 1, 1, 1], [0, 1], [0, "1", 1, 0, 1], "01101"):
            with pytest.raises(ValueError, match="row"):
                poly_from_json([row])

    def test_text_form(self):
        assert str(qint(2)) == "v^-2 + v^2"
        assert str(LaurentPoly.zero()) == "0"
        assert str(-V(9) + V(1)) == "v - v^9"
        assert str(LaurentPoly({-1: -3, 0: 1, 2: 12})) == "-3v^-1 + 1 + 12v^2"
        assert str(LaurentPoly.const(-5)) == "-5"


coeff_strategy = st.integers(min_value=-9, max_value=9)
poly_strategy = st.dictionaries(
    st.integers(min_value=-6, max_value=6), coeff_strategy, max_size=5
).map(LaurentPoly)


class TestRingAxioms:
    @settings(max_examples=120, deadline=None)
    @given(poly_strategy, poly_strategy, poly_strategy)
    def test_associativity_and_distributivity(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @settings(max_examples=120, deadline=None)
    @given(poly_strategy, poly_strategy)
    def test_commutativity(self, a, b):
        assert a + b == b + a
        assert a * b == b * a

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=-8, max_value=8), st.integers(min_value=-8, max_value=8))
    def test_qint_products_symmetric_and_bar_invariant(self, m, n):
        p = qint(m) * qint(n)
        assert p == qint(n) * qint(m)
        assert p.bar() == p
