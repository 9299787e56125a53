"""Loss-core unit tests: frozen values, identities, and gradient checks.

Expected numbers were computed with an independent 40-digit mpmath
evaluation of the closed-form definitions and frozen here.
"""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rfl_lab.losses import (
    FD_STEP,
    GAMMA_GRID,
    PT_CLAMP_HI,
    PT_CLAMP_LO,
    PT_GRID,
    TH_GRID,
    LossKind,
    LossParams,
    binary_pt,
    cutoff_factor,
    loss_and_dpt,
    loss_at,
    loss_columns,
    sigmoid_head,
    softmax_head,
)

CE = LossParams(kind=LossKind.CE)
FL2 = LossParams(kind=LossKind.FL, gamma=2.0)
RFL_HALF = LossParams(kind=LossKind.RFL, gamma=2.0, threshold=0.5)
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


def softmax_rows(z, y, params):
    """Losses (n,) and logit gradients (n, C) of the softmax head under one
    loss, on rows ``z`` (n, C) with labels ``y``."""
    losses, grads = softmax_head(np.array(z, dtype=np.float64)[None], np.asarray(y), [params])
    return losses[0], grads[0]


def sigmoid_rows(z, labels, params):
    """Losses (n,) and logit gradients (n,) of the sigmoid head under one
    loss, on the logits ``z`` (n,) with 0/1 ``labels``."""
    sign = np.where(np.asarray(labels) == 1, 1.0, -1.0)
    losses, grads = sigmoid_head(np.array(z, dtype=np.float64)[None, :, None], sign, [params])
    return losses[0], grads[0, :, 0]


class TestSoftmaxHead:
    def test_uniform_logits_ce(self):
        loss, _ = softmax_rows([np.zeros(4)], [0], CE)
        assert loss[0] == pytest.approx(math.log(4.0), rel=1e-12)

    def test_two_class_boundary_rfl(self):
        loss, _ = softmax_rows([[0.0, 0.0]], [0], RFL_HALF)
        assert loss[0] == pytest.approx(math.log(2.0), rel=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        vectors = [rng.normal(size=5) for _ in range(20)]
        j = np.arange(5)
        for kind in LossKind:
            params = LossParams(kind=kind, gamma=2.0, threshold=0.5)
            for z in vectors:
                # Row 0 is z; rows 2j+1 and 2j+2 move z_j by +h and -h.
                rows = np.repeat(z[None], 11, axis=0)
                rows[2 * j + 1, j], rows[2 * j + 2, j] = z + FD_STEP, z - FD_STEP
                losses, grads = softmax_rows(rows, np.full(len(rows), 2), params)
                num = (losses[1::2] - losses[2::2]) / (2.0 * FD_STEP)
                for k in range(5):
                    assert rel_err(grads[0, k], num[k]) < 1e-6

    def test_stable_at_large_logits(self):
        for params in (CE, FL2, RFL_HALF):
            loss, grad = softmax_rows([[1e3, -1e3, 0.0]], [1], params)
            assert np.all(np.isfinite(loss))
            assert np.all(np.isfinite(grad))


class TestSigmoidHead:
    def test_zero_logit_ce(self):
        loss, _ = sigmoid_rows([0.0], [1], CE)
        assert loss[0] == pytest.approx(math.log(2.0), rel=1e-12)

    def test_label_symmetry(self):
        z = np.array([-3.0, -0.5, 0.0, 1.7])
        l1, g1 = sigmoid_rows(z, np.ones(4), FL2)
        l0, g0 = sigmoid_rows(-z, np.zeros(4), FL2)
        for i in range(4):
            assert l1[i] == pytest.approx(l0[i], rel=1e-12)
            assert g1[i] == pytest.approx(-g0[i], rel=1e-12)

    def test_matches_scalar_rfl_near_09(self):
        # logit 2.1972 puts sigmoid within 3e-6 of 0.9.
        loss, _ = sigmoid_rows([2.1972], [1], RFL_HALF)
        assert loss[0] == pytest.approx(4.2144206263130537e-3, abs=1e-5)

    def test_gradient_matches_finite_differences(self):
        # The logit whose labelled-class probability is the grid pt, for
        # each (pt, label), then each moved by +h and -h.
        labels = np.tile([0, 1], len(PT_GRID))
        z = np.array([math.log(t / (1.0 - t)) for pt in PT_GRID for t in (1.0 - pt, pt)])
        for kind in LossKind:
            for gamma in GAMMA_GRID:
                for th in TH_GRID:
                    params = LossParams(kind=kind, gamma=gamma, threshold=th)
                    _, ana = sigmoid_rows(z, labels, params)
                    plus, _ = sigmoid_rows(z + FD_STEP, labels, params)
                    minus, _ = sigmoid_rows(z - FD_STEP, labels, params)
                    num = (plus - minus) / (2.0 * FD_STEP)
                    for i, pt in enumerate(np.repeat(PT_GRID, 2)):
                        if abs(pt - th) >= KINK_BAND:
                            assert rel_err(ana[i], num[i]) < 1e-5

    def test_saturated_logits_survive(self):
        for label in (0, 1):
            loss, grad = sigmoid_rows([-800.0, 800.0], [label, label], RFL_HALF)
            assert np.all(np.isfinite(loss)) and np.all(np.isfinite(grad))


# Every kind on the grids, th = 1 too; logits from deep in either clamp
# through the logit of each threshold, so the clamped pt the heads see
# falls below, at and above th.
HEAD_LOSS = st.builds(LossParams, st.sampled_from(list(LossKind)), st.sampled_from(GAMMA_GRID),
                      st.sampled_from(TH_GRID + [1.0]))
LOGIT = st.one_of(st.floats(-60.0, 60.0),
                  st.sampled_from([-800.0, 0.0, 800.0] + [math.log(th / (1.0 - th))
                                                          for th in TH_GRID]))


@st.composite
def stacked_runs(draw, head):
    """(logits (R, n, K), targets (n,), R losses) of a stacked head call."""
    losses = draw(st.lists(HEAD_LOSS, min_size=1, max_size=5))
    n = draw(st.integers(1, 12))
    K = 1 if head is sigmoid_head else draw(st.integers(2, 5))
    size = len(losses) * n * K
    z = np.array(draw(st.lists(LOGIT, min_size=size, max_size=size))).reshape(len(losses), n, K)
    if head is sigmoid_head:
        target = np.array(draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=n, max_size=n)))
    else:
        target = np.array(draw(st.lists(st.integers(0, K - 1), min_size=n, max_size=n)))
    return z, target, losses


def head_pt(head, z, target):
    """The clamped pt of each row (R, n) of the head's logits ``z``, spelled
    as the head spells it."""
    if head is sigmoid_head:
        s = z[:, :, 0] * target
        return binary_pt(np.stack((-s, s)))[0]
    p = np.exp(z - np.maximum.reduce(z, axis=2, keepdims=True))
    p /= np.add.reduce(p, axis=2, keepdims=True)
    pt = p[:, np.arange(z.shape[1]), target]
    return np.minimum(np.maximum(pt, PT_CLAMP_LO), PT_CLAMP_HI)


@pytest.mark.parametrize("head", [softmax_head, sigmoid_head], ids=["softmax", "sigmoid"])
class TestHeadIdentities:
    """The exact loss identities, on the rows the training heads return for
    stacked runs of mixed losses."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_identities_hold_on_every_row(self, head, data):
        z, target, losses = data.draw(stacked_runs(head))
        pt = head_pt(head, z, target)
        got_loss, got_grad = head(z.copy(), target, losses)

        def solo(r, params):
            loss, grad = head(z[r:r + 1].copy(), target, [params])
            return loss[0], grad[0]

        for r, params in enumerate(losses):
            for i in range(z.shape[1]):  # each stacked row is its own one-row call
                loss, grad = head(z[r:r + 1, i:i + 1].copy(), target[i:i + 1], [params])
                assert loss[0, 0] == got_loss[r, i]
                assert np.array_equal(grad[0, 0], got_grad[r, i])
            if params.kind is not LossKind.RFL:
                continue
            th, gamma = params.threshold, params.gamma
            ce_loss, ce_grad = solo(r, CE)
            flat = pt[r] < th  # CE, bitwise, on the flat branch
            assert np.array_equal(got_loss[r][flat], ce_loss[flat])
            assert np.array_equal(got_grad[r][flat], ce_grad[flat])
            if th == 1.0:  # all of it
                assert flat.all()
            fl_loss, _ = solo(r, LossParams(LossKind.FL, gamma))
            lhs, rhs = fl_loss[~flat], th**gamma * got_loss[r][~flat]
            assert np.all(np.abs(lhs - rhs) <= 2 * np.spacing(np.maximum(abs(lhs), abs(rhs))))


@st.composite
def mixed_gamma_runs(draw, head):
    """A stacked head call whose losses mix CE, FL and RFL at two gammas.  A
    loss's threshold is a grid one or one of its own run's clamped pts, so
    pts fall below, above and exactly at th."""
    gammas = draw(st.lists(st.sampled_from(GAMMA_GRID), min_size=2, max_size=2, unique=True))
    z, target, losses = draw(stacked_runs(head))
    pt = head_pt(head, z, target)
    at = st.integers(0, z.shape[1] - 1)
    losses = [LossParams(p.kind, draw(st.sampled_from(gammas)),
                         draw(st.sampled_from(TH_GRID + [1.0, float(pt[r, draw(at)])])))
              for r, p in enumerate(losses)]
    return z, target, losses


@pytest.mark.parametrize("head", [softmax_head, sigmoid_head], ids=["softmax", "sigmoid"])
class TestLossesOnDemand:
    """Gradients without the losses are bitwise the gradients with them, the
    stacked rows are their one-run calls, and a loss list equals its
    columns."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_gradients_do_not_depend_on_the_losses(self, head, data):
        z, target, losses = data.draw(mixed_gamma_runs(head))
        pt = head_pt(head, z, target)
        got_loss, got_grad = head(z.copy(), target, losses)
        for params in (losses, loss_columns(losses, z.shape[1])):
            off_loss, off_grad = head(z.copy(), target, params, with_loss=False)
            assert off_loss is None
            assert np.array_equal(off_grad, got_grad)
            on_loss, on_grad = head(z.copy(), target, params)
            assert np.array_equal(on_loss, got_loss) and np.array_equal(on_grad, got_grad)
        for r, params in enumerate(losses):
            loss, grad = head(z[r:r + 1].copy(), target, [params])
            assert np.array_equal(loss[0], got_loss[r])
            assert np.array_equal(grad[0], got_grad[r])
            if params.kind is LossKind.RFL:  # at and above th, FL over th^gamma
                upper = pt[r] >= params.threshold
                fl_loss, _ = head(z[r:r + 1].copy(), target, [LossParams(LossKind.FL,
                                                                         params.gamma)])
                scaled = fl_loss[0][upper] / params.threshold**params.gamma
                assert np.array_equal(got_loss[r][upper], scaled)


@settings(max_examples=200, deadline=None)
@given(th=st.floats(0.01, 0.99), gamma=st.floats(0.0, 8.0),
       pts=st.lists(st.floats(PT_CLAMP_LO, PT_CLAMP_HI), max_size=8))
def test_kernel_takes_the_upper_branch_at_threshold(th, gamma, pts):
    # On arrays, pt == th takes the at-or-above branch for value and
    # derivative alike: FL over th^gamma; below th, CE.
    pt = np.array([th, np.nextafter(th, 0.0)] + pts)
    args = (pt, -np.log(pt), 1.0 - pt)
    loss, dpt = loss_and_dpt(*args, LossParams(LossKind.RFL, gamma, th))
    fl_loss, fl_dpt = loss_and_dpt(*args, LossParams(LossKind.FL, gamma))
    ce_loss, ce_dpt = loss_and_dpt(*args, CE)
    upper = pt >= th
    assert upper[0] and not upper[1]
    assert np.array_equal(loss[upper], fl_loss[upper] / th**gamma)
    assert np.array_equal(dpt[upper], fl_dpt[upper] / th**gamma)
    assert np.array_equal(loss[~upper], ce_loss[~upper])
    assert np.array_equal(dpt[~upper], ce_dpt[~upper])


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
            for ours, ref in zip(binary_pt(np.stack((-s, s))), clip_binary_pt(z, y)):
                assert ours.tobytes() == ref.tobytes()
