import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skipdiff import (
    build_cosine,
    build_linear_beta,
    build_sigma_grid,
)
from skipdiff.errors import InvalidScheduleParams

# independent high-precision cumulative-product oracle (mpmath, 50 digits),
# computed before the build and frozen here
ABAR_1000_LINEAR = 4.0358297653756833148176351615541440390773941252668e-5
COSINE_T10_AT_5 = 0.49384359044063771331655268066906827620301605396074


class TestLinearBeta:
    def test_constant_beta_product(self):
        s = build_linear_beta(4, 0.5, 0.5)
        np.testing.assert_allclose(s.alpha_bar, [1, 0.5, 0.25, 0.125, 0.0625], rtol=1e-15)

    def test_single_step(self):
        s = build_linear_beta(1, 0.1, 0.1)
        np.testing.assert_allclose(s.alpha_bar, [1, 0.9], rtol=1e-15)

    def test_long_schedule_matches_high_precision_oracle(self):
        s = build_linear_beta(1000, 1e-4, 0.02)
        assert s.alpha_bar[1000] == pytest.approx(ABAR_1000_LINEAR, rel=1e-12)

    def test_beta_consistency(self):
        s = build_linear_beta(200, 1e-3, 0.1)
        ratios = s.alpha_bar[1:] / s.alpha_bar[:-1]
        np.testing.assert_allclose(ratios, 1 - s.betas[1:], rtol=1e-12)

    @pytest.mark.parametrize("args", [(0, 0.1, 0.2), (10, 0.0, 0.1), (10, 0.2, 0.1), (10, 0.1, 1.0)])
    def test_invalid_params(self, args):
        with pytest.raises(InvalidScheduleParams):
            build_linear_beta(*args)

    @pytest.mark.parametrize("args, t, value", [((10, 1e-20, 0.4), 1, "1.0"),
                                                ((200, 0.999, 0.999), 108, "0.0")],
                             ids=["one", "underflow"])
    def test_degenerate_alpha_bar_names_the_first_step(self, args, t, value):
        # 1 - 1e-20 rounds to 1, and 0.001**108 underflows to 0
        with pytest.raises(InvalidScheduleParams,
                           match=rf"^alpha_bar\[{t}\] = {value} is not strictly inside \(0, 1\)$"):
            build_linear_beta(*args)


class TestCosine:
    def test_matches_scalar_formula(self):
        s = build_cosine(10, 0.008)
        assert s.alpha_bar[5] == pytest.approx(COSINE_T10_AT_5, rel=1e-12)

    def test_single_entry(self):
        # f(1) = cos(pi/2)^2 = 0 analytically, so the final entry is governed
        # by the beta clamp rather than the raw formula
        s = build_cosine(1, 0.008)
        assert s.alpha_bar[0] == 1.0
        assert s.alpha_bar[1] == pytest.approx(1.0 - 0.999, rel=1e-12)

    def test_clamping_keeps_invariants(self):
        s = build_cosine(2, 1e-9)
        assert s.alpha_bar[2] > 0
        assert np.all(np.diff(s.alpha_bar) < 0)

    def test_invalid_offset(self):
        with pytest.raises(InvalidScheduleParams):
            build_cosine(10, 0.0)

    def test_degenerate_alpha_bar_is_rejected(self):
        # at this offset every raw level rounds to f(0), so no step adds noise
        with pytest.raises(InvalidScheduleParams, match=r"^alpha_bar\[1\] = 1.0 is not strictly"):
            build_cosine(10, 1e300)


class TestSigmaGrid:
    def test_endpoints_only(self):
        g = build_sigma_grid(1, 0.01, 10, 1)
        np.testing.assert_allclose(g.sigmas, [10, 0])

    def test_linear_midpoint(self):
        g = build_sigma_grid(2, 0.01, 10, 1)
        np.testing.assert_allclose(g.sigmas, [10, 5.005, 0], rtol=1e-15)

    def test_rho7_matches_scalar_formula(self):
        # frozen from an independent scalar evaluation (mpmath)
        g = build_sigma_grid(4, 0.002, 80, 7)
        expected = [80.0, 17.527831964644111, 2.5152189761471586, 0.16975275626876403, 0.0]
        np.testing.assert_allclose(g.sigmas, expected, rtol=1e-12)

    def test_invalid(self):
        with pytest.raises(InvalidScheduleParams):
            build_sigma_grid(0, 0.01, 10, 7)
        with pytest.raises(InvalidScheduleParams):
            build_sigma_grid(4, 10, 0.01, 7)
        with pytest.raises(InvalidScheduleParams):
            build_sigma_grid(4, 0.01, 10, 0.5)


@settings(max_examples=50, deadline=None)
@given(
    T=st.integers(1, 300),
    beta_start=st.floats(1e-6, 0.3),
    spread=st.floats(0.0, 0.5),
)
def test_linear_schedule_invariants(T, beta_start, spread):
    beta_end = min(beta_start + spread, 0.9)
    s = build_linear_beta(T, beta_start, beta_end)
    assert s.alpha_bar[0] == 1.0
    assert np.all(np.diff(s.alpha_bar) < 0)
    assert np.all((s.alpha_bar[1:] > 0) & (s.alpha_bar[1:] < 1))
    np.testing.assert_allclose(
        s.alpha_bar[1:] / s.alpha_bar[:-1], 1 - s.betas[1:], rtol=1e-12
    )


@settings(max_examples=50, deadline=None)
@given(T=st.integers(1, 300), offset=st.floats(1e-6, 0.5))
def test_cosine_schedule_invariants(T, offset):
    s = build_cosine(T, offset)
    assert s.alpha_bar[0] == 1.0
    assert np.all(np.diff(s.alpha_bar) < 0)
    assert np.all((s.alpha_bar[1:] > 0) & (s.alpha_bar[1:] < 1))
