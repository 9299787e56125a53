"""Cross entropy, focal loss, and reduced focal loss with analytic gradients.

All three losses are functions of ``pt``, the probability the model assigns
to the ground-truth class:

    CE(pt)  = -log(pt)
    FL(pt)  = (1 - pt)^gamma * (-log(pt))
    RFL(pt) = fr(pt, th)    * (-log(pt))

where the cut-off factor ``fr`` flattens the focal weight below a
probability threshold ``th``:

    fr(pt, th) = 1                          if pt <  th
               = (1 - pt)^gamma / th^gamma  if pt >= th

The flat branch makes RFL behave exactly like cross entropy on hard
samples while keeping the focal down-weighting of easy ones.  The factor
is continuous at pt = th only for th = 0.5 (there (1-th)^g/th^g = 1); for
other thresholds the formula has a jump at the boundary, which is kept
as written rather than smoothed.

One kernel, :func:`loss_and_dpt`, evaluates these formulas and their
derivative d(loss)/d(pt) on scalars or arrays; :func:`loss_at` is its
scalar entry point, the loss ``params.kind`` selects and its derivative
at one pt, and :func:`cutoff_factor` divides that loss by CE.  Two heads
wire it to model outputs and return the analytic gradient with respect
to the logits: :func:`softmax_head` (multiclass, K classes) and
:func:`sigmoid_head` (binary, K = 1).  Both take stacked logits of shape
(R, n, K), one loss per stacked model, and return losses (R, n) and
logit gradients (R, n, K).  The SGD step ``train.step`` and the
one-sample composites :func:`softmax_loss_and_grad` and
:func:`binary_loss_and_grad` are calls of these heads, so ``rfl-lab
gradcheck`` checks the gradient that trains.  :func:`loss_at` rejects pt
outside the open interval (0, 1); the heads instead clamp pt to
[1e-12, 1 - 1e-12] so training survives saturated outputs.

Everything here is a pure function of its arguments and safe to call
from any number of threads.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

# Clamp bounds applied to pt inside the softmax/sigmoid heads.
PT_CLAMP_LO = 1e-12
PT_CLAMP_HI = 1.0 - 1e-12


class LossKind(enum.Enum):
    CE = "CE"
    FL = "FL"
    RFL = "RFL"


@dataclass(frozen=True)
class LossParams:
    """Focusing exponent, cut-off threshold, and loss selector.

    ``gamma`` and ``threshold`` are ignored by the CE kind; ``threshold``
    is ignored by FL.  ``threshold`` may be 1.0, in which case RFL
    degenerates to CE (the heads clamp pt strictly below 1).  ``gamma``
    must be finite, and an RFL loss needs ``threshold**gamma``, its
    divisor, to be a positive normal float: 0.5**2000 underflows to 0.
    """

    kind: LossKind
    gamma: float = 2.0
    threshold: float = 0.5

    def __post_init__(self) -> None:
        if not (0.0 <= self.gamma < math.inf):
            raise ValueError(f"gamma must be finite and >= 0, got {self.gamma}")
        if not (0.0 < self.threshold <= 1.0):
            raise ValueError(f"threshold must be in (0, 1], got {self.threshold}")
        if self.kind is LossKind.RFL and self.threshold**self.gamma < sys.float_info.min:
            raise ValueError(f"RFL threshold**gamma must be a normal float, got "
                             f"{self.threshold}**{self.gamma} = {self.threshold**self.gamma}")


def loss_and_dpt(pt, neg_log, one_minus, params: LossParams):
    """Loss and d(loss)/d(pt) from pt, -log(pt) and 1 - pt, as scalars or
    equal-shaped arrays: the one spelling of the piecewise formulas.  Each
    caller clamps pt and supplies its own stable -log(pt).  At pt = th the
    at-or-above branch applies to value and derivative alike."""
    gamma, th = params.gamma, params.threshold
    if params.kind is LossKind.CE:
        return neg_log, -1.0 / pt
    weight = one_minus**gamma
    fl = weight * neg_log
    # d/dpt [(1-pt)^g * (-log pt)] = g*(1-pt)^(g-1)*log(pt) - (1-pt)^g/pt
    if gamma == 0.0:
        dfl = -1.0 / pt
    else:
        dfl = gamma * one_minus ** (gamma - 1.0) * np.log(pt) - weight / pt
    if params.kind is LossKind.FL:
        return fl, dfl
    scale = th**gamma
    flat = pt < th
    loss = np.where(flat, neg_log, fl / scale)
    dpt = np.where(flat, -1.0 / pt, dfl / scale)
    return loss, dpt


def loss_at(pt: float, params: LossParams) -> tuple[float, float]:
    """(loss, dloss/dpt) of ``params`` at a scalar pt strictly inside (0, 1).
    At the RFL kink pt = threshold, where the derivative is not defined,
    both come from the at-or-above branch."""
    if not (0.0 < pt < 1.0):
        raise ValueError(f"pt must lie strictly inside (0, 1), got {pt}")
    loss, dpt = loss_and_dpt(pt, -math.log(pt), 1.0 - pt, params)
    return float(loss), float(dpt)


def cutoff_factor(pt: float, params: LossParams) -> float:
    """The focal weight of ``params`` relative to CE, loss / -log(pt): for
    RFL exactly 1 below threshold, (1-pt)^g/th^g at or above."""
    return loss_at(pt, params)[0] / -math.log(pt)


def _per_run(pt, neg_log, one_minus, params: Sequence[LossParams]):
    """:func:`loss_and_dpt` of row r of (runs, n) arrays under ``params[r]``."""
    losses, dpt = np.empty(pt.shape), np.empty(pt.shape)
    for r, loss in enumerate(params):
        losses[r], dpt[r] = loss_and_dpt(pt[r], neg_log[r], one_minus[r], loss)
    return losses, dpt


def softmax_head(z: np.ndarray, y: np.ndarray,
                 params: Sequence[LossParams]) -> tuple[np.ndarray, np.ndarray]:
    """Losses (S, n) and logit gradients (S, n, C) of S stacked softmax heads on
    the C-ordered logits ``z`` (S, n, C), which it overwrites; row i has label
    ``y[i]``, head s the loss ``params[s]``.  Each row's max is subtracted so
    logits up to ~1e3 stay finite; d(loss)/d(z_j) = dloss/dpt * pt *
    (delta_{j,y} - softmax_j).  Each row is bitwise what it gives alone."""
    S, n, C = z.shape
    # The max is exact in any order: reduce a (C, S*n) copy along its rows.
    z -= np.maximum.reduce(z.reshape(-1, C).T.copy(), axis=0).reshape(S, n, 1)
    p = np.exp(z, out=z)
    p /= np.add.reduce(p, axis=2, keepdims=True)
    at = np.arange(0, S * n * C, n * C)[:, None] + (np.arange(0, n * C, C) + y)
    p_label = p.take(at)  # (S, n): each row's label entry, per head
    pt = np.minimum(np.maximum(p_label, PT_CLAMP_LO), PT_CLAMP_HI)
    losses, dpt = _per_run(pt, -np.log(pt), 1.0 - pt, params)
    direction = np.negative(p, out=p)
    direction.put(at, 1.0 - p_label)
    return losses, (dpt * pt)[:, :, None] * direction


def binary_pt(s: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Clamped pt, -log(pt) and 1 - pt of a sigmoid head, from the logit
    signed toward the label (z for label 1, -z for label 0), so that
    pt = sigmoid(s).  The log-sigmoid identity -log(sigmoid(s)) =
    log(1 + exp(-s)) keeps large |s| from overflowing; -log(pt) is capped
    at -log(1e-12), mirroring the clamp."""
    softplus = np.logaddexp(0.0, -s)
    neg_log = np.minimum(softplus, -math.log(PT_CLAMP_LO))
    pt = np.minimum(np.maximum(np.exp(-softplus), PT_CLAMP_LO), PT_CLAMP_HI)
    one_minus = np.exp(-np.logaddexp(0.0, s))
    one_minus = np.minimum(np.maximum(one_minus, PT_CLAMP_LO), PT_CLAMP_HI)
    return pt, neg_log, one_minus


def sigmoid_head(z: np.ndarray, sign: np.ndarray,
                 params: Sequence[LossParams]) -> tuple[np.ndarray, np.ndarray]:
    """Losses (R, n) and logit gradients (R, n, 1) of R stacked sigmoid heads
    on the logits ``z`` (R, n, 1); ``sign[i]`` is +1 for label 1 and -1 for
    label 0, and head r has the loss ``params[r]``.  pt comes from
    :func:`binary_pt`, and dpt/dz = +/- pt * (1 - pt)."""
    pt, neg_log, one_minus = binary_pt(z[:, :, 0] * sign)
    losses, dpt = _per_run(pt, neg_log, one_minus, params)
    return losses, (dpt * pt * one_minus * sign)[:, :, None]


def softmax_loss_and_grad(
    logits: np.ndarray, gt: int, params: LossParams
) -> tuple[float, np.ndarray]:
    """Selected loss of softmax(logits)[gt] and its gradient wrt the logits:
    one row of :func:`softmax_head`."""
    z = np.array(logits, dtype=np.float64)
    if z.ndim != 1 or z.shape[0] < 2:
        raise ValueError("logits must be a 1-D vector of length >= 2")
    if not (0 <= gt < z.shape[0]):
        raise ValueError(f"gt index {gt} out of range for {z.shape[0]} classes")
    if not np.all(np.isfinite(z)):
        raise ValueError("logits must be finite")
    losses, grad = softmax_head(z[None, None], np.array([gt]), [params])
    return float(losses[0, 0]), grad[0, 0]


def binary_loss_and_grad(
    logit: float, label: int, params: LossParams
) -> tuple[float, float]:
    """(loss, dloss/dlogit) of a sigmoid binary head: one row of
    :func:`sigmoid_head`."""
    if label not in (0, 1):
        raise ValueError(f"label must be 0 or 1, got {label}")
    if not math.isfinite(logit):
        raise ValueError("logit must be finite")
    sign = np.array([1.0 if label == 1 else -1.0])
    losses, grad = sigmoid_head(np.array([[[logit]]], dtype=np.float64), sign, [params])
    return float(losses[0, 0]), float(grad[0, 0, 0])
