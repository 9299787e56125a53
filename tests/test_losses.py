"""Loss-core unit tests: frozen values, identities, and gradient checks.

Expected numbers were computed with an independent 40-digit mpmath
evaluation of the closed-form definitions and frozen here.
"""

import math
import sys

import numpy as np
import pytest

from rfl_lab.losses import (
    PT_CLAMP_HI,
    PT_CLAMP_LO,
    LossKind,
    LossParams,
    binary_loss_and_grad,
    binary_pt,
    cutoff_factor,
    loss_at,
    softmax_loss_and_grad,
)

CE = LossParams(kind=LossKind.CE)
FL2 = LossParams(kind=LossKind.FL, gamma=2.0)
RFL_HALF = LossParams(kind=LossKind.RFL, gamma=2.0, threshold=0.5)

# Shared evaluation grid (kept in sync with the acceptance gradient suite).
PT_GRID = [0.01] + [k * 0.05 for k in range(1, 20)] + [0.99]
GAMMA_GRID = [0.0, 0.5, 1.0, 2.0, 5.0]
TH_GRID = [0.25, 0.5, 0.9]
KINK_BAND = 1e-4


def central_diff(f, x, h=1e-6):
    return (f(x + h) - f(x - h)) / (2.0 * h)


def rel_err(a, b):
    return abs(a - b) / max(abs(b), 1e-12)


class TestParamValidation:
    def test_negative_gamma_rejected(self):
        with pytest.raises(ValueError):
            LossParams(kind=LossKind.FL, gamma=-0.1)

    def test_threshold_bounds(self):
        with pytest.raises(ValueError):
            LossParams(kind=LossKind.RFL, threshold=0.0)
        with pytest.raises(ValueError):
            LossParams(kind=LossKind.RFL, threshold=1.0 + 1e-9)
        LossParams(kind=LossKind.RFL, threshold=1.0)  # inclusive upper end

    @pytest.mark.parametrize("kind", list(LossKind))
    @pytest.mark.parametrize("gamma", [math.inf, math.nan])
    def test_non_finite_gamma_rejected(self, kind, gamma):
        with pytest.raises(ValueError, match="gamma must be finite"):
            LossParams(kind=kind, gamma=gamma)

    def test_rfl_divisor_must_be_a_normal_float(self):
        # 0.5**1022 is the least normal float; 0.5**1023 is subnormal and
        # 0.5**2000 is 0, where the RFL branch above th divides by zero.
        assert 0.5**1022 == sys.float_info.min
        LossParams(kind=LossKind.RFL, gamma=1022.0, threshold=0.5)
        for gamma in (1023.0, 2000.0):
            with pytest.raises(ValueError, match=r"threshold\*\*gamma"):
                LossParams(kind=LossKind.RFL, gamma=gamma, threshold=0.5)
        # FL has no divisor, and th = 1 divides by 1 at any finite gamma.
        assert loss_at(0.5, LossParams(kind=LossKind.FL, gamma=2000.0))[0] == 0.0
        rfl_one = LossParams(kind=LossKind.RFL, gamma=2000.0, threshold=1.0)
        assert loss_at(0.5, rfl_one)[0] == loss_at(0.5, CE)[0]

    @pytest.mark.parametrize("pt", [0.0, 1.0, -0.5, 1.5, float("nan")])
    def test_endpoints_rejected(self, pt):
        for params in (CE, FL2, RFL_HALF):
            with pytest.raises(ValueError):
                loss_at(pt, params)
            with pytest.raises(ValueError):
                cutoff_factor(pt, params)


class TestFrozenValues:
    def test_ce(self):
        assert loss_at(0.5, CE)[0] == pytest.approx(0.6931471805599453, rel=1e-12)
        assert loss_at(0.25, CE)[0] == pytest.approx(1.3862943611198906, rel=1e-12)
        assert loss_at(1.0 - 1e-9, CE)[0] == pytest.approx(1e-9, rel=1e-6)

    def test_focal(self):
        assert loss_at(0.25, FL2)[0] == pytest.approx(0.7797905781299321, rel=1e-12)
        assert loss_at(0.9, FL2)[0] == pytest.approx(1.0536051565782634e-3, rel=1e-12)

    def test_cutoff_factor(self):
        assert cutoff_factor(0.25, RFL_HALF) == 1.0
        assert cutoff_factor(0.75, RFL_HALF) == pytest.approx(0.25, rel=1e-12)
        th_one = LossParams(kind=LossKind.RFL, gamma=2.0, threshold=1.0)
        for pt in PT_GRID:
            assert cutoff_factor(pt, th_one) == 1.0

    def test_cutoff_factor_follows_the_given_kind(self):
        # loss / CE of the loss it is given: 1 for CE, (1 - pt)^gamma for FL.
        assert cutoff_factor(0.75, CE) == 1.0
        assert cutoff_factor(0.75, FL2) == pytest.approx(0.0625, rel=1e-12)

    def test_cutoff_factor_jump_below_half_threshold(self):
        # Verbatim case formula: for th < 0.5 the factor exceeds 1 just
        # above the threshold ((1-th)/th)^gamma, here 9.
        quarter = LossParams(kind=LossKind.RFL, gamma=2.0, threshold=0.25)
        assert cutoff_factor(0.25 - 1e-9, quarter) == 1.0
        assert cutoff_factor(0.25, quarter) == pytest.approx(9.0, rel=1e-6)

    def test_reduced_focal(self):
        # High-loss zone: identical to cross entropy.
        assert loss_at(0.25, RFL_HALF)[0] == loss_at(0.25, CE)[0]
        assert loss_at(0.9, RFL_HALF)[0] == pytest.approx(
            4.2144206263130537e-3, rel=1e-12
        )
        # Boundary at th=0.5 has factor exactly 1.
        assert loss_at(0.5, RFL_HALF)[0] == pytest.approx(
            0.6931471805599453, rel=1e-12
        )

    def test_grad_values(self):
        assert loss_at(0.25, RFL_HALF)[1] == -4.0
        assert loss_at(0.9, RFL_HALF)[1] == pytest.approx(-0.12873285697127957, rel=1e-10)
        assert loss_at(0.5, CE)[1] == -2.0


class TestIdentities:
    def test_rfl_equals_ce_below_threshold_bitwise(self):
        for th in TH_GRID:
            params = LossParams(kind=LossKind.RFL, gamma=2.0, threshold=th)
            for pt in PT_GRID:
                if pt < th:
                    assert loss_at(pt, params) == loss_at(pt, CE)  # value and slope

    def test_scaling_identity_within_2ulp(self):
        for th in TH_GRID:
            for gamma in GAMMA_GRID:
                params = LossParams(kind=LossKind.RFL, gamma=gamma, threshold=th)
                fparams = LossParams(kind=LossKind.FL, gamma=gamma)
                for pt in PT_GRID:
                    if pt >= th:
                        lhs = loss_at(pt, fparams)[0]
                        rhs = th**gamma * loss_at(pt, params)[0]
                        assert abs(lhs - rhs) <= 2 * math.ulp(max(abs(lhs), abs(rhs)))

    def test_gamma_zero_collapses_to_ce(self):
        for th in TH_GRID:
            fl0 = LossParams(kind=LossKind.FL, gamma=0.0)
            rfl0 = LossParams(kind=LossKind.RFL, gamma=0.0, threshold=th)
            for pt in PT_GRID:
                assert loss_at(pt, fl0)[0] == loss_at(pt, CE)[0]
                assert loss_at(pt, rfl0)[0] == loss_at(pt, CE)[0]

    def test_ordering_for_upper_half_thresholds(self):
        # FL <= RFL <= CE holds whenever th >= 0.5 (above the threshold the
        # factor (1-pt)^g/th^g is then <= 1); for th < 0.5 the verbatim
        # formula exceeds 1 in the middle zone, so no ordering is claimed.
        for th in (0.5, 0.75, 0.9):
            for gamma in (0.5, 2.0):
                p_fl = LossParams(kind=LossKind.FL, gamma=gamma)
                p_rfl = LossParams(kind=LossKind.RFL, gamma=gamma, threshold=th)
                for pt in PT_GRID:
                    fl = loss_at(pt, p_fl)[0]
                    rfl = loss_at(pt, p_rfl)[0]
                    ce = loss_at(pt, CE)[0]
                    assert fl <= rfl * (1 + 1e-15)
                    assert rfl <= ce * (1 + 1e-15)
                    if pt < th:
                        assert rfl == ce

    def test_monotone_decreasing_on_dense_grid(self):
        grid = np.linspace(0.001, 0.999, 1999)
        for params in (CE, FL2,
                       LossParams(kind=LossKind.RFL, gamma=2.0, threshold=0.5),
                       LossParams(kind=LossKind.RFL, gamma=1.0, threshold=0.9)):
            vals = [loss_at(float(pt), params)[0] for pt in grid]
            assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_value_continuity_at_threshold(self):
        # The value (not the derivative) is continuous at pt = th for
        # th >= 0.5; approach the boundary from both sides.
        for th in (0.5, 0.75, 0.9):
            params = LossParams(kind=LossKind.RFL, gamma=2.0, threshold=th)
            at = loss_at(th, params)[0]
            below = loss_at(th - 1e-10, params)[0]
            expected_factor = (1.0 - th) ** 2 / th**2
            assert at == pytest.approx(expected_factor * loss_at(th, CE)[0], rel=1e-12)
            if th == 0.5:
                assert below == pytest.approx(at, abs=1e-8)


class TestScalarGradients:
    def test_grid_matches_finite_differences(self):
        worst = 0.0
        for kind in LossKind:
            for gamma in GAMMA_GRID:
                for th in TH_GRID:
                    params = LossParams(kind=kind, gamma=gamma, threshold=th)
                    for pt in PT_GRID:
                        if abs(pt - th) < KINK_BAND:
                            continue
                        num = central_diff(lambda p: loss_at(p, params)[0], pt)
                        ana = loss_at(pt, params)[1]
                        worst = max(worst, rel_err(ana, num))
        assert worst < 1e-6


class TestSoftmaxComposite:
    def test_uniform_logits_ce(self):
        loss, _ = softmax_loss_and_grad(np.zeros(4), 0, CE)
        assert loss == pytest.approx(math.log(4.0), rel=1e-12)

    def test_two_class_boundary_rfl(self):
        loss, _ = softmax_loss_and_grad(np.array([0.0, 0.0]), 0, RFL_HALF)
        assert loss == pytest.approx(math.log(2.0), rel=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        for kind in LossKind:
            params = LossParams(kind=kind, gamma=2.0, threshold=0.5)
            for _ in range(20):
                z = rng.normal(size=5)
                _, grad = softmax_loss_and_grad(z, 2, params)
                for j in range(5):
                    def f(v, j=j):
                        zz = z.copy()
                        zz[j] = v
                        return softmax_loss_and_grad(zz, 2, params)[0]
                    num = central_diff(f, z[j])
                    assert rel_err(grad[j], num) < 1e-6

    def test_stable_at_large_logits(self):
        z = np.array([1e3, -1e3, 0.0])
        for params in (CE, FL2, RFL_HALF):
            loss, grad = softmax_loss_and_grad(z, 1, params)
            assert math.isfinite(loss)
            assert np.all(np.isfinite(grad))

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            softmax_loss_and_grad(np.array([1.0]), 0, CE)
        with pytest.raises(ValueError):
            softmax_loss_and_grad(np.array([1.0, 2.0]), 2, CE)
        with pytest.raises(ValueError):
            softmax_loss_and_grad(np.array([1.0, np.inf]), 0, CE)


class TestBinaryComposite:
    def test_zero_logit_ce(self):
        loss, _ = binary_loss_and_grad(0.0, 1, CE)
        assert loss == pytest.approx(math.log(2.0), rel=1e-12)

    def test_label_symmetry(self):
        for z in (-3.0, -0.5, 0.0, 1.7):
            l1, g1 = binary_loss_and_grad(z, 1, FL2)
            l0, g0 = binary_loss_and_grad(-z, 0, FL2)
            assert l1 == pytest.approx(l0, rel=1e-12)
            assert g1 == pytest.approx(-g0, rel=1e-12)

    def test_matches_scalar_rfl_near_09(self):
        # logit 2.1972 puts sigmoid within 3e-6 of 0.9.
        loss, _ = binary_loss_and_grad(2.1972, 1, RFL_HALF)
        assert loss == pytest.approx(4.2144206263130537e-3, abs=1e-5)

    def test_gradient_matches_finite_differences(self):
        for kind in LossKind:
            for gamma in GAMMA_GRID:
                for th in TH_GRID:
                    params = LossParams(kind=kind, gamma=gamma, threshold=th)
                    for pt in PT_GRID:
                        if abs(pt - th) < KINK_BAND:
                            continue
                        for label in (0, 1):
                            # Choose the logit so the labelled-class
                            # probability equals the grid pt.
                            target = pt if label == 1 else 1.0 - pt
                            z = math.log(target / (1.0 - target))

                            def f(v):
                                return binary_loss_and_grad(v, label, params)[0]

                            _, ana = binary_loss_and_grad(z, label, params)
                            num = central_diff(f, z)
                            assert rel_err(ana, num) < 1e-5

    def test_saturated_logits_survive(self):
        for z in (-800.0, 800.0):
            for label in (0, 1):
                loss, grad = binary_loss_and_grad(z, label, RFL_HALF)
                assert math.isfinite(loss) and math.isfinite(grad)
        with pytest.raises(ValueError):
            binary_loss_and_grad(float("inf"), 1, CE)
        with pytest.raises(ValueError):
            binary_loss_and_grad(0.0, 2, CE)


def clip_binary_pt(z, y):
    """The np.clip spelling of :func:`binary_pt`, on labels, as a reference."""
    s = np.where(y == 1, z, -z)
    log_pt = -np.logaddexp(0.0, -s)
    neg_log = np.minimum(-log_pt, -math.log(PT_CLAMP_LO))
    pt = np.clip(np.exp(log_pt), PT_CLAMP_LO, PT_CLAMP_HI)
    one_minus = np.clip(np.exp(-np.logaddexp(0.0, s)), PT_CLAMP_LO, PT_CLAMP_HI)
    return pt, neg_log, one_minus


class TestClamp:
    """The min/max clamp equals np.clip on every non-NaN value."""

    EDGES = [PT_CLAMP_LO, PT_CLAMP_HI]
    VALUES = np.array(
        [-np.inf, np.inf, -1.0, 0.0, -0.0, 0.5, 1.0, 2.0]
        + EDGES
        + [np.nextafter(e, 0.5) for e in EDGES]    # just inside
        + [np.nextafter(e, -1.0) for e in EDGES]   # just outside below
        + [np.nextafter(e, 2.0) for e in EDGES]    # just above
    )

    def test_min_max_equals_clip(self):
        ours = np.minimum(np.maximum(self.VALUES, PT_CLAMP_LO), PT_CLAMP_HI)
        ref = np.clip(self.VALUES, PT_CLAMP_LO, PT_CLAMP_HI)
        assert ours.tobytes() == ref.tobytes()

    def test_binary_pt_equals_clip_spelling(self):
        # Logits from -inf to inf, including ones whose pt lands at or just
        # inside either bound (|z| near -log(1e-12) = 27.63).
        edge = -math.log(PT_CLAMP_LO)
        z = np.array([-np.inf, np.inf, -800.0, 800.0, 0.0, -0.0, 1.5, -1.5]
                     + [edge + k * 1e-3 for k in range(-5, 6)]
                     + [-edge + k * 1e-3 for k in range(-5, 6)]
                     + [36.0, 36.8, 37.0, -36.8])
        for label in (0, 1):
            y = np.full(len(z), label)
            s = z if label == 1 else -z
            for ours, ref in zip(binary_pt(s), clip_binary_pt(z, y)):
                assert ours.tobytes() == ref.tobytes()
