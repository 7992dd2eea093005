"""Kernel tests: incomplete beta, the I-integral family, J, and the bracket."""

import math
import random

import mpmath
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import betainc, betaln

from binrisk import incbeta
from binrisk.incbeta import (
    BracketOverflowError,
    _bracket,
    log_inc_beta_lower,
)

from conftest import (
    eval_I,
    eval_I_two_sided,
    eval_J,
    quad_I,
    quad_I_two_sided,
    quad_J,
    quad_inc_beta,
)

P_BAR_GRID = [0.1 * k for k in range(1, 10)]
ALPHA_GRID = [0.5, 1.0, 2.5]
GAP_GRID = [0.5, 1.0, 3.0]


class TestIncBetaLower:
    def test_uniform_density(self):
        assert math.exp(log_inc_beta_lower(1.0, 1.0, 0.3)) == pytest.approx(
            0.3, rel=1e-12, abs=0
        )

    def test_complete_beta_2_1(self):
        assert math.exp(log_inc_beta_lower(2.0, 1.0, 1.0)) == pytest.approx(
            0.5, rel=1e-12, abs=0
        )

    def test_arcsine_half(self):
        # antiderivative of t^(-1/2)(1-t)^(-1/2) is 2 arcsin(sqrt(t)),
        # so the value at x = 1/2 is 2 arcsin(sqrt(1/2)) = pi/2
        assert math.exp(log_inc_beta_lower(0.5, 0.5, 0.5)) == pytest.approx(
            math.pi / 2.0, rel=1e-12
        )

    def test_zero_endpoint(self):
        assert math.exp(log_inc_beta_lower(2.0, 3.0, 0.0)) == 0.0

    # x = 0, the continued fraction (x <= 0.4), its upper tail, the complete beta
    @pytest.mark.parametrize("x", [0.0, 0.2, 0.9, 1.0])
    def test_returns_a_python_float(self, x):
        assert type(log_inc_beta_lower(2.0, 3.0, x)) is float

    @pytest.mark.parametrize("alpha,beta,x", [(0.7, 1.3, 0.2), (3.0, 0.4, 0.9)])
    def test_matches_quadrature(self, alpha, beta, x):
        assert math.exp(log_inc_beta_lower(alpha, beta, x)) == pytest.approx(
            quad_inc_beta(alpha, beta, x), rel=1e-11
        )

    @pytest.mark.parametrize(
        "alpha,beta,x",
        [
            (-1.0, 1.0, 0.5),
            (1.0, 0.0, 0.5),
            (1.0, 1.0, 1.5),
            # non-finite inputs fail here, before either continued fraction
            (math.nan, 1.0, 0.5),
            (1.0, math.nan, 0.5),
            (math.inf, 1.0, 0.5),
            (1.0, math.inf, 0.5),
            (1.0, 1.0, math.nan),
        ],
    )
    def test_domain_errors(self, alpha, beta, x):
        with pytest.raises(ValueError):
            log_inc_beta_lower(alpha, beta, x)

    @settings(max_examples=60, deadline=None)
    @given(
        alpha=st.floats(0.2, 8.0),
        beta=st.floats(0.2, 8.0),
        x=st.floats(0.001, 0.999),
    )
    def test_matches_regularized_reference(self, alpha, beta, x):
        # scipy's betainc is an entirely separate implementation
        ref = float(betainc(alpha, beta, x)) * math.exp(betaln(alpha, beta))
        assert math.exp(log_inc_beta_lower(alpha, beta, x)) == pytest.approx(
            ref, rel=1e-10, abs=0
        )

    @settings(max_examples=40, deadline=None)
    @given(
        alpha=st.floats(0.3, 5.0),
        beta=st.floats(0.3, 5.0),
        x1=st.floats(0.05, 0.45),
        x2=st.floats(0.5, 0.95),
    )
    def test_monotone_in_x(self, alpha, beta, x1, x2):
        assert math.exp(log_inc_beta_lower(alpha, beta, x1)) < math.exp(
            log_inc_beta_lower(alpha, beta, x2)
        )

    def test_switch_region_matches_mpmath(self):
        # alpha < beta with x from an ulp above the mean up to (alpha+1)/(alpha
        # +beta+2), where the lower fraction converges and the complement of
        # the upper tail loses digits, cancels or does not converge. The
        # reference is DLMF 8.17.8, B(x; a, b) = x^a (1-x)^b / a F(a+b, 1;
        # a+1; x), a series of positive terms, where mpmath's betainc sums an
        # alternating one and takes seconds at a, b ~ 1e3.
        rng = random.Random(2024)
        points = []
        for _ in range(400):
            a, b = sorted(10 ** rng.uniform(-3.0, 4.0) for _ in range(2))
            mean, edge = a / (a + b), (a + 1) / (a + b + 2)
            points += [(a, b, math.nextafter(mean, 1.0)), (a, b, rng.uniform(mean, edge))]
        skipped = 0
        for a, b, x in points:
            try:
                with mpmath.workdps(30):
                    a_, b_, x_ = mpmath.mpf(a), mpmath.mpf(b), mpmath.mpf(x)
                    exact = float(
                        a_ * mpmath.log(x_) + b_ * mpmath.log1p(-x_) - mpmath.log(a_)
                        + mpmath.log(mpmath.hyp2f1(a_ + b_, 1, a_ + 1, x_))
                    )
            except ValueError:  # mpmath's own series did not converge
                skipped += 1
                continue
            got = log_inc_beta_lower(a, b, x)
            assert abs(got - exact) <= 2e-15 * max(1.0, abs(exact)), (a, b, x)
        assert skipped <= len(points) // 100

    @pytest.mark.parametrize(
        "alpha, beta, x, exact",
        [
            # the complement cancelled and was clamped to epsilon: 24.99
            (1e-25, 2.0, 1e-20, 57.5646273248511),
            # the swapped call ran its fraction at 1 - 1e-9 and did not converge
            (1e-12, 3.0, 1e-9, 27.6310211159078),
        ],
    )
    def test_small_alpha_above_its_mean_matches_mpmath(self, alpha, beta, x, exact):
        assert log_inc_beta_lower(alpha, beta, x) == pytest.approx(exact, rel=1e-15, abs=0)

    @pytest.mark.parametrize(
        "alpha, beta, x",
        # the upper tail rounds to B(alpha, beta); in the second 1 - x rounds to 1
        [(0.01, 1e-18, 0.9999999999999999), (1.0, 1e17, 5e-17)],
    )
    def test_an_upper_tail_that_is_all_of_b_raises(self, alpha, beta, x):
        with pytest.raises(ArithmeticError, match="lost to cancellation"):
            log_inc_beta_lower(alpha, beta, x)

    def test_fraction_that_does_not_converge_raises(self, monkeypatch):
        # with b = 1 the fraction terminates after one step, so b = 2.5
        monkeypatch.setattr(incbeta, "_CF_MAX_ITER", 1)
        with pytest.raises(ArithmeticError, match="continued fraction did not converge"):
            log_inc_beta_lower(2.0, 2.5, 0.3)


class TestEvalI:
    def test_alpha_plus_one_closed_form(self):
        # I(alpha, alpha + 1, p_bar) = 1 / {(1 - p_bar) alpha}
        assert eval_I(1.0, 2.0, 0.5) == pytest.approx(2.0, rel=1e-10)
        for alpha in ALPHA_GRID:
            for pb in P_BAR_GRID:
                assert eval_I(alpha, alpha + 1.0, pb) == pytest.approx(
                    1.0 / ((1.0 - pb) * alpha), rel=1e-10
                )

    def test_half_two_closed_form(self):
        # I(1/2, 2, p_bar) = {1 + arctan(sqrt(r_bar)) / sqrt(p_bar(1-p_bar))} / (1-p_bar)
        assert eval_I(0.5, 2.0, 0.5) == pytest.approx(2.0 + math.pi, rel=1e-10)
        for pb in P_BAR_GRID:
            closed = (
                1.0
                + math.atan(math.sqrt(pb / (1.0 - pb)))
                / math.sqrt(pb * (1.0 - pb))
            ) / (1.0 - pb)
            assert eval_I(0.5, 2.0, pb) == pytest.approx(closed, rel=1e-10)

    def test_p_bar_to_zero_limit(self):
        for alpha in ALPHA_GRID:
            assert eval_I(alpha, alpha + 2.0, 1e-9) == pytest.approx(
                1.0 / alpha, rel=1e-6
            )

    def test_alpha_recurrence(self):
        # alpha I(alpha, gamma, pb) = 1 + pb gamma I(alpha+1, gamma+1, pb)
        for alpha in ALPHA_GRID:
            for gap in GAP_GRID:
                gamma = alpha + gap
                for pb in P_BAR_GRID:
                    lhs = alpha * eval_I(alpha, gamma, pb)
                    rhs = 1.0 + pb * gamma * eval_I(alpha + 1.0, gamma + 1.0, pb)
                    assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_three_factor_identity(self):
        for alpha in ALPHA_GRID:
            for gap in GAP_GRID:
                gamma = alpha + gap
                for pb in P_BAR_GRID:
                    i_up = eval_I(alpha + 1.0, gamma + 1.0, pb)
                    lhs = (1.0 + 1.0 / (gap * eval_I(alpha, gamma, pb))) * (
                        1.0 + 1.0 / (pb * gamma * i_up)
                    )
                    rhs = 1.0 + 1.0 / (pb * gap * i_up)
                    assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_shift_identity(self):
        # 1 + pb (gamma - alpha) I(alpha+1, gamma+1, pb) = (1-pb) alpha I(alpha, gamma+1, pb)
        for alpha in ALPHA_GRID:
            for gap in GAP_GRID:
                gamma = alpha + gap
                for pb in P_BAR_GRID:
                    lhs = 1.0 + pb * gap * eval_I(alpha + 1.0, gamma + 1.0, pb)
                    rhs = (1.0 - pb) * alpha * eval_I(alpha, gamma + 1.0, pb)
                    assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_reciprocal_inequality(self):
        # 1/I(alpha+1, gamma+1, pb) <= 1 + 1/I(alpha, gamma+1, pb)
        for alpha in ALPHA_GRID:
            for gap in GAP_GRID:
                gamma = alpha + gap
                for pb in P_BAR_GRID:
                    lhs = 1.0 / eval_I(alpha + 1.0, gamma + 1.0, pb)
                    rhs = 1.0 + 1.0 / eval_I(alpha, gamma + 1.0, pb)
                    assert rhs - lhs >= -1e-12

    def test_splitting_identity(self):
        # I(alpha, gamma, pb) = (1-pb) I(alpha, gamma+1, pb) + pb I(alpha+1, gamma+1, pb)
        for alpha in ALPHA_GRID:
            for gap in GAP_GRID:
                gamma = alpha + gap
                for pb in P_BAR_GRID:
                    lhs = eval_I(alpha, gamma, pb)
                    rhs = (1.0 - pb) * eval_I(alpha, gamma + 1.0, pb) + pb * eval_I(
                        alpha + 1.0, gamma + 1.0, pb
                    )
                    assert lhs == pytest.approx(rhs, rel=1e-10)

    @pytest.mark.parametrize(
        "alpha,gamma,pb", [(0.5, 1.7, 0.3), (1.5, 4.0, 0.6), (2.5, 3.2, 0.85)]
    )
    def test_matches_quadrature(self, alpha, gamma, pb):
        assert eval_I(alpha, gamma, pb) == pytest.approx(
            quad_I(alpha, gamma, pb), rel=1e-9
        )

    def test_gamma_le_alpha_rejected(self):
        # I checks nothing itself; gamma <= alpha reaches the kernel's
        # beta > 0 check through the beta measure, which the two-sided I
        # always takes (the upper I on the lower fraction's side reads the
        # fraction without the kernel)
        with pytest.raises(ValueError):
            eval_I_two_sided(2.0, 2.0, 0.1, 0.5)


class TestEvalITwoSided:
    def test_small_lower_bound_recovers_one_sided(self):
        one = eval_I(1.0, 2.0, 0.5)
        two = eval_I_two_sided(1.0, 2.0, 1e-10, 0.5)
        assert two == pytest.approx(one, rel=1e-8)

    def test_antiderivative_value(self):
        # integral of dt/(0.5 + 0.5 t)^2 from rho = 1/3 to 1 equals exactly 1
        assert eval_I_two_sided(1.0, 2.0, 0.25, 0.5) == pytest.approx(
            1.0, rel=1e-12
        )

    def test_quadrature_value(self):
        assert eval_I_two_sided(2.0, 3.0, 0.4, 0.6) == pytest.approx(
            quad_I_two_sided(2.0, 3.0, 0.4, 0.6), rel=1e-10
        )


class TestEvalJ:
    def test_at_zero_reduces_to_I(self):
        for a, b, n, pb in [(1.0, 1.0, 3, 0.3), (0.5, 2.0, 5, 0.2)]:
            assert eval_J(0.0, n, a, b, pb) == pytest.approx(
                eval_I(a, n + a + b + 1.0, pb), rel=1e-12
            )

    def test_at_upper_endpoint_uniform(self):
        # a = b = 1, pb = 1/2: {1 + (1-pb) a} / {(1-pb)^2 a (a+1)} = 3
        assert eval_J(0.5, 1, 1.0, 1.0, 0.5) == pytest.approx(3.0, rel=1e-10)

    def test_at_upper_endpoint_symmetric_half(self):
        for pb in (0.2, 0.5, 0.7):
            closed = (
                1.0
                + math.atan(math.sqrt(pb / (1.0 - pb)))
                / math.sqrt(pb * (1.0 - pb))
            ) / (1.0 - pb)
            assert eval_J(pb, 1, 0.5, 0.5, pb) == pytest.approx(closed, rel=1e-10)

    @pytest.mark.parametrize(
        "p,n,a,b,pb", [(0.1, 3, 1.0, 1.0, 0.3), (0.15, 6, 0.5, 2.0, 0.2)]
    )
    def test_matches_quadrature(self, p, n, a, b, pb):
        assert eval_J(p, n, a, b, pb) == pytest.approx(
            quad_J(p, n, a, b, pb), rel=1e-9
        )


class TestBracketTerm:
    def test_small_lower_bound_tends_to_one(self):
        assert _bracket(1.0, 2.0, 1e-12, 0.5) == pytest.approx(1.0, rel=1e-9)

    def test_direct_substitution_value(self):
        rho = (0.25 / 0.75) / (0.5 / 0.5)
        expected = 1.0 - rho / (1.0 - 0.5 * (1.0 - rho)) ** 2
        assert _bracket(1.0, 2.0, 0.25, 0.5) == pytest.approx(
            expected, rel=1e-12, abs=0
        )
        assert expected == pytest.approx(0.25, rel=1e-12, abs=0)

    def test_symmetric_midpoint_is_exact_zero(self):
        # alpha = gamma/2 with a symmetric interval: both endpoint values agree
        assert _bracket(2.0, 4.0, 0.3, 0.7) == 0.0

    def test_sign_flips_across_midpoint(self):
        # gamma = n + 2a with alpha = x + a: sign follows x - n/2
        assert _bracket(1.5, 4.0, 0.3, 0.7) < 0.0
        assert _bracket(2.5, 4.0, 0.3, 0.7) > 0.0

    def test_overflow_is_a_typed_error_naming_its_arguments(self):
        # the x = 0 entry of the n = 2000 table on [0.05, 0.5]: the endpoint
        # ratio is exp(1282.05), past the double range
        with pytest.raises(BracketOverflowError) as info:
            _bracket(1.0, 2002.0, 0.05, 0.5)
        assert isinstance(info.value, ArithmeticError)
        assert not isinstance(info.value, OverflowError)
        message = str(info.value)
        for part in ("bracket term", "alpha=1.0", "gamma=2002.0", "[0.05, 0.5]"):
            assert part in message


class TestTwoSidedRatioIdentities:
    PARAMS = [
        (0.7, 2.2, 0.15, 0.45),
        (1.5, 3.0, 0.2, 0.6),
        (2.5, 4.5, 0.1, 0.3),
        (0.5, 1.7, 0.05, 0.5),
    ]

    @pytest.mark.parametrize("alpha,gamma,pl,pb", PARAMS)
    def test_first_moment_ratio(self, alpha, gamma, pl, pb):
        from conftest import quad_beta_measure

        lhs = (
            alpha
            / gamma
            * quad_beta_measure(alpha, gamma - alpha, pl, pb)
            / quad_beta_measure(alpha + 1.0, gamma - alpha, pl, pb)
        )
        rhs = 1.0 + _bracket(alpha, gamma, pl, pb) / (
            pb * gamma * eval_I_two_sided(alpha + 1.0, gamma + 1.0, pl, pb)
        )
        assert lhs == pytest.approx(rhs, rel=1e-9)

    @pytest.mark.parametrize("alpha,gamma,pl,pb", PARAMS)
    def test_second_moment_ratio(self, alpha, gamma, pl, pb):
        from conftest import quad_beta_measure

        lhs = (
            (gamma - alpha)
            / gamma
            * quad_beta_measure(alpha, gamma - alpha, pl, pb)
            / quad_beta_measure(alpha, gamma - alpha + 1.0, pl, pb)
        )
        rhs = 1.0 - _bracket(alpha, gamma, pl, pb) / (
            (1.0 - pb) * gamma * eval_I_two_sided(alpha, gamma + 1.0, pl, pb)
        )
        assert lhs == pytest.approx(rhs, rel=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(
        alpha=st.floats(0.3, 4.0),
        gap=st.floats(0.3, 4.0),
        pl=st.floats(0.02, 0.4),
        width=st.floats(0.05, 0.5),
    )
    def test_strict_bracket_inequality(self, alpha, gap, pl, width):
        gamma = alpha + gap
        pb = min(pl + width, 0.95)
        br = _bracket(alpha, gamma, pl, pb)
        lhs = br / eval_I_two_sided(alpha + 1.0, gamma + 1.0, pl, pb)
        rhs = 1.0 + br / eval_I_two_sided(alpha, gamma + 1.0, pl, pb)
        assert lhs < rhs

