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

One kernel evaluates these formulas and d(loss)/d(pt), with CE and FL
written as RFLs; :func:`loss_and_dpt` runs it on scalars or arrays,
:func:`loss_at` at one pt, and :func:`cutoff_factor` divides that loss
by CE.  Two heads wire it to stacked logits (R, n, K), one loss per
model, and return losses (R, n), None unless asked for, and the analytic
logit gradients (R, n, K): :func:`softmax_head` (K classes) and
:func:`sigmoid_head` (K = 1, pt and 1 - pt from one stacked pass of
:func:`binary_pt`); one kernel pass serves the models of each gamma
(:func:`loss_columns`).  On a step's small arrays numpy's per-call
overhead sets the cost, so a head compiles once for a logits buffer: its
buffers, views, label offsets and kernel branches are bound then, and each
call runs only numpy's calls, with every bit of the plain spelling; the
softmax head computes class-major, adding the biases as it lays the logits
out, and writes its gradients batch-major (:func:`softmax_head`).  A head
called with its targets compiles and runs once, as ``train.step`` does, so
``rfl-lab gradcheck`` checks the gradient that trains.  :func:`loss_at`
rejects pt outside (0, 1); the heads clamp pt to [1e-12, 1 - 1e-12] so
training survives saturated outputs, and their callers validate the logits
and labels they pass.  A compiled head owns its buffers, so it serves one
thread; everything else here is safe from any number of threads.
"""

from __future__ import annotations

import enum
import math
import sys
from collections import namedtuple
from dataclasses import dataclass
from typing import Sequence

import numpy as np

# Clamp bounds applied to pt inside the softmax/sigmoid heads.
PT_CLAMP_LO = 1e-12
PT_CLAMP_HI = 1.0 - 1e-12
try:  # np.clip's ufunc without its Python wrapper: minimum(maximum(x, lo), hi), bitwise
    from numpy._core.umath import clip as _clip
except ImportError:  # numpy 1.x
    from numpy.core.umath import clip as _clip


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


def _rfl_form(params: LossParams) -> tuple[float, float, float]:
    """(gamma, th, th^gamma) that write ``params`` as an RFL, bitwise: CE is
    RFL at gamma 0 and th 1 (every pt < 1 is flat), FL at th 0, divisor 1."""
    if params.kind is LossKind.CE:
        return 0.0, 1.0, 1.0
    if params.kind is LossKind.FL:
        return params.gamma, 0.0, 1.0
    return params.gamma, params.threshold, params.threshold**params.gamma


def _kernel(gamma: float, th, scale, with_loss: bool = True, arrays: bool = True):
    """The one spelling of the piecewise formulas, compiled for a Python-float
    ``gamma`` (numpy keeps its scalar-power fast paths), threshold ``th`` and
    divisor ``scale`` (None: all 1; x / 1.0 is x): a function of pt, -log(pt)
    and 1 - pt, arrays shaped as ``th`` (scalars unless ``arrays``), that
    returns the loss (None unless ``with_loss``) and d(loss)/d(pt)."""
    if gamma == 0.0:  # weight and divisor th^0 are 1: either branch is CE
        return lambda pt, neg_log, one_minus: (neg_log if with_loss else None, -1.0 / pt)
    square, log, putmask = gamma == 2.0, np.log, np.putmask  # numpy's, looked up once
    power = np.square if square and arrays else lambda x: x**gamma  # an array**2.0 is np.square

    def kernel(pt, neg_log, one_minus):
        recip = -1.0 / pt
        weight = power(one_minus)
        # d/dpt [(1-pt)^g * (-log pt)] = g*(1-pt)^(g-1)*log(pt) - (1-pt)^g/pt; (1-pt)^1.0 = 1-pt
        dfl = gamma * (one_minus if square else one_minus ** (gamma - 1.0)) * log(pt)
        dfl -= weight / pt
        if scale is not None:
            dfl /= scale
        flat = pt < th
        loss = np.where(flat, neg_log, weight * neg_log if scale is None else
                        weight * neg_log / scale) if with_loss else None
        if not arrays:
            return loss, np.where(flat, recip, dfl)
        putmask(dfl, flat, recip)
        return loss, dfl
    return kernel


def loss_and_dpt(pt, neg_log, one_minus, params: LossParams):
    """Loss and d(loss)/d(pt) from pt, -log(pt) and 1 - pt, as scalars or
    equal-shaped arrays; the caller clamps pt and supplies a stable -log(pt).
    At pt = th the at-or-above branch applies to value and derivative."""
    return _kernel(*_rfl_form(params), arrays=isinstance(pt, np.ndarray))(pt, neg_log, one_minus)


# :func:`loss_columns` of R stacked losses: (rows, gamma, th, scale or None) per distinct gamma.
LossColumns = namedtuple("LossColumns", "groups")


def loss_columns(params: Sequence[LossParams], width: int) -> LossColumns:
    """The rows of each gamma with threshold and divisor arrays (rows, width),
    whose [:, :B] views fit B rows; divisors all 1 are None.  CE rows join
    the first gamma: their th = 1 puts every clamped pt on the flat branch."""
    gammas = [p.gamma for p in params if p.kind is not LossKind.CE] or [0.0]
    keys = [gammas[0] if p.kind is LossKind.CE else p.gamma for p in params]
    groups = []
    for gamma in dict.fromkeys(keys):
        rows = [r for r, k in enumerate(keys) if k == gamma]
        th, scale = np.repeat(np.array([_rfl_form(params[r])[1:] for r in rows]).T[:, :, None],
                              width, axis=2)
        groups.append((np.array(rows), gamma, th, None if (scale == 1.0).all() else scale))
    return LossColumns(tuple(groups))


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


def _stacked(params, R: int, n: int, with_loss: bool):
    """The kernel of (R, n) arrays, run r under loss r of ``params`` (losses or
    columns >= n wide): one gamma's kernel, or each gamma's on its rows."""
    groups = (params if isinstance(params, LossColumns) else loss_columns(params, n)).groups
    kernels = [(rows, _kernel(gamma, th[:, :n], None if scale is None else scale[:, :n],
                              with_loss)) for rows, gamma, th, scale in groups]
    if len(kernels) == 1:
        return kernels[0][1]

    def stacked(pt, neg_log, one_minus):
        losses, dpt = np.empty((R, n)) if with_loss else None, np.empty((R, n))
        for rows, kernel in kernels:
            loss, dpt[rows] = kernel(pt[rows], neg_log if neg_log is None else neg_log[rows],
                                     one_minus[rows])
            if with_loss:
                losses[rows] = loss
        return losses, dpt
    return stacked


def _row_sum(rows: np.ndarray, out: np.ndarray):
    """A function that sums ``rows`` (C, m) over C into ``out`` (m,), each
    column bitwise as ``np.add.reduce`` sums a contiguous C-vector.  numpy
    sums those pairwise from its identity 0 (0 + s is s for these sums of
    exps): below 8 terms in sequence; up to 128, eight accumulators over
    strides of 8, then ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)), then
    the rest in sequence; beyond, each half so, the first a multiple of 8."""
    C, m = rows.shape
    if C < 8:  # a reduce over the outer axis adds the rows in sequence
        return lambda: np.add.reduce(rows, axis=0, out=out)
    four, two, steps = np.empty((4, m)), np.empty((2, m)), []

    def block(lo: int, hi: int, to: np.ndarray) -> None:
        if hi - lo > 128:
            half = (hi - lo) // 2 - (hi - lo) // 2 % 8
            left, right = np.empty(m), np.empty(m)
            block(lo, lo + half, left)
            block(lo + half, hi, right)
            steps.append((left, right, to))
            return
        end = hi - (hi - lo) % 8  # the rows that the eight accumulators take
        eight = rows[lo:lo + 8]
        if end - lo > 8:
            acc = np.empty((8, m))
            steps.append((eight, rows[lo + 8:lo + 16], acc))
            steps.extend((acc, rows[i:i + 8], acc) for i in range(lo + 16, end, 8))
            eight = acc
        steps.extend([(eight[0::2], eight[1::2], four), (four[0::2], four[1::2], two),
                      (two[0], two[1], to)])
        steps.extend((to, row, to) for row in rows[end:hi])
    block(0, C, out)
    add = np.add

    def row_sum():
        for a, b, to in steps:
            add(a, b, out=to)
    return row_sum


def softmax_head(z: np.ndarray, y: np.ndarray | None, params, with_loss: bool = True,
                 b: np.ndarray | None = None):
    """Losses (R, n) and logit gradients (R, n, C) of R stacked softmax heads on
    the C-ordered logits ``z`` (R, n, C), plus the biases ``b`` (R, C) if
    given; row i has label ``y[i]``, head r the loss ``params[r]`` (a list of
    losses or their :func:`loss_columns`).  Each row's max is subtracted so
    logits up to ~1e3 stay finite; d(loss)/d(z_j) = dloss/dpt * pt *
    (delta_{j,y} - softmax_j).  Each row is bitwise what it gives alone.
    Without ``with_loss`` the losses are None, and the gradients the same
    bits.  With ``y`` None it compiles for the buffer ``z``: (run, grads),
    run(y) returning the losses.

    The head works class-major, on a (C, R, n) buffer of its own, since a
    broadcast or reduce along a short class axis runs one inner loop per
    row: one add lays the logits out and adds the biases (so a caller adds
    none), and the row max, the shift, exp, the row sum and division, the
    label gather at offset y * R * n + the row's index, and the gradient
    product then run over rows of R * n entries, each row's scalars one
    (R * n,) operand.  The row sum adds in ``np.add.reduce``'s order along C
    (:func:`_row_sum`).  The last product writes the gradients batch-major,
    (n, R, C), over ``z``'s memory; ``grads`` is their (R, n, C) view, so a
    bias gradient, a sum over n, adds contiguous rows of R * C in sequence.
    A call with ``y`` leaves those batch-major gradients in ``z``."""
    R, n, C = z.shape
    m = R * n
    kernel = _stacked(params, R, n, with_loss)
    classes = np.empty((C, R, n))
    rows, top, total = classes.reshape(C, m), np.empty(m), np.empty(m)
    laid, bias = z.transpose(2, 0, 1), 0.0 if b is None else b.T[:, :, None]
    row_sum = _row_sum(rows, total)
    p_label, at = np.empty((R, n)), np.empty((R, n), np.intp)
    starts = np.arange(m).reshape(R, n)  # each row's first entry; + y * m, its label's
    grads = z.reshape(n, R, C)
    written = grads.transpose(2, 1, 0)  # the (C, R, n) view that the last product fills

    def run(y):
        np.add(laid, bias, out=classes)  # + 0.0 turns only -0.0 to 0.0: exp(+-0) is 1
        np.maximum.reduce(rows, axis=0, out=top)  # the max is exact in any order
        np.subtract(rows, top, out=rows)
        np.exp(rows, out=rows)
        row_sum()
        np.divide(rows, total, out=rows)
        np.add(np.multiply(y, m, out=at), starts, out=at)
        rows.take(at, out=p_label, mode="clip")  # each row's label entry
        pt = _clip(p_label, PT_CLAMP_LO, PT_CLAMP_HI)
        losses, grad = kernel(pt, -np.log(pt) if with_loss else None, 1.0 - pt)
        np.negative(rows, out=rows)
        rows.put(at, np.subtract(1.0, p_label, out=p_label))
        grad *= pt
        np.multiply(classes, grad, out=written)
        return losses
    return (run if y is None else run(y)), grads.transpose(1, 0, 2)


def binary_pt(both: np.ndarray, with_loss: bool = True):
    """Clamped pt, -log(pt) and 1 - pt of a sigmoid head, from ``both`` =
    [-s, s], which it overwrites, for the logit s signed toward the label
    (z for label 1, -z for label 0): pt = sigmoid(s).  -log(sigmoid(s)) =
    log(1 + exp(-s)) keeps large |s| from overflowing: one logaddexp over
    both and one exp give pt and 1 - pt.  -log(pt) is capped at
    -log(1e-12), mirroring the clamp, and None without ``with_loss``."""
    np.logaddexp(0.0, both, out=both)  # softplus(-s), softplus(s)
    neg_log = np.minimum(both[0], -math.log(PT_CLAMP_LO)) if with_loss else None
    _clip(np.exp(np.negative(both, out=both), out=both), PT_CLAMP_LO, PT_CLAMP_HI, out=both)
    return both[0], neg_log, both[1]  # pt, -log(pt), 1 - pt


def sigmoid_head(z: np.ndarray, sign: np.ndarray | None, params, with_loss: bool = True):
    """Losses (R, n) and logit gradients (R, n, 1) of R stacked sigmoid heads
    on the logits ``z`` (R, n, 1); ``sign`` (R, n) (or (n,), a broadcast) is
    +1 for label 1 and -1 for label 0, and head r has the loss ``params[r]``
    (a list of losses or their :func:`loss_columns`).  pt comes from
    :func:`binary_pt`, and dpt/dz = +/- pt * (1 - pt).  Without
    ``with_loss`` the losses are None.  With ``sign`` None it compiles for the
    buffer ``z``: (run, grads), run(sign) filling ``grads``, returning the losses."""
    R, n, _ = z.shape
    kernel = _stacked(params, R, n, with_loss)
    both, grads = np.empty((2, R, n)), np.empty((R, n, 1))
    logit, minus, plus, into = z[:, :, 0], both[0], both[1], grads[:, :, 0]
    negative, multiply = np.negative, np.multiply

    def run(sign):
        negative(multiply(logit, sign, out=plus), out=minus)
        pt, neg_log, one_minus = binary_pt(both, with_loss)
        losses, grad = kernel(pt, neg_log, one_minus)
        grad *= pt
        grad *= one_minus
        multiply(grad, sign, out=into)
        return losses
    return (run, grads) if sign is None else (run(sign), grads)


# The grids of :func:`run_gradcheck`, which the identity tests share.
PT_GRID = [0.01] + [k * 0.05 for k in range(1, 20)] + [0.99]
GAMMA_GRID = [0.0, 0.5, 1.0, 2.0, 5.0]
TH_GRID = [0.25, 0.5, 0.9]
FD_STEP = 1e-6  # central-difference step


def run_gradcheck(kink_band: float, negate: bool = False):
    """Central differences against the analytic gradients of :func:`loss_at`
    and both heads, for every loss on the grids; returns (worst, sections):
    the largest relative error in "scalar", "binary" and "softmax", and a
    dict describing the largest of all.  Grid pts within ``kink_band`` of th
    are skipped, and ``negate`` flips every analytic gradient (a negative
    control).  The sigmoid head runs once per loss on the logit of every
    (grid pt, label) and its copies moved by +h and -h, the softmax head
    once per loss and logit vector."""
    flip = -1.0 if negate else 1.0
    worst = {"rel_err": 0.0, "where": "", "at_kink": False}
    sections: dict[str, float] = {}

    def record(section: str, analytic: float, numeric: float, where: str, at_kink: bool):
        err = abs(analytic - numeric) / max(abs(numeric), 1e-12)  # relative error
        sections[section] = max(sections.get(section, 0.0), err)
        if err > worst["rel_err"]:
            worst.update(rel_err=err, where=where, at_kink=at_kink)

    rng = np.random.default_rng(12345)
    logit_vectors = [rng.normal(size=k) for k in (2, 5, 5, 8) for _ in range(4)]
    # Logit vectors realizing each grid pt exactly (softmax[0] = pt), plus
    # a few random ones for off-grid coverage.
    grid_vectors = []
    for pt in PT_GRID:
        for k in (2, 5):
            z = np.zeros(k)
            z[0] = math.log(pt * (k - 1) / (1.0 - pt))
            grid_vectors.append((pt, z))
    for z in logit_vectors:  # pt as the head sees it: exp(-CE loss)
        ce, _ = softmax_head(z[None, None].copy(), np.zeros(1, int), [LossParams(LossKind.CE)])
        grid_vectors.append((math.exp(-ce[0, 0]), z))
    # Row 2i + y is the logit whose label-y pt is PT_GRID[i]; the next n rows
    # move each by +h, the last n by -h.
    z = np.array([math.log(t / (1.0 - t)) for pt in PT_GRID for t in (1.0 - pt, pt)])
    n = len(z)
    binary_z = np.concatenate([z, z + FD_STEP, z - FD_STEP])[None, :, None]
    binary_sign = np.tile([-1.0, 1.0], 3 * len(PT_GRID))

    for kind in LossKind:
        for gamma in GAMMA_GRID:
            for th in TH_GRID:
                params = LossParams(kind=kind, gamma=gamma, threshold=th)
                label = f"{kind.value} gamma={gamma} th={th}"
                losses, grads = sigmoid_head(binary_z, binary_sign, [params])
                binary_ana = (flip * grads[0, :n, 0]).tolist()
                binary_num = ((losses[0, n:2 * n] - losses[0, 2 * n:]) / (2.0 * FD_STEP)).tolist()
                for i, pt in enumerate(PT_GRID):
                    at_kink = abs(pt - th) < 1e-12
                    if kink_band > 0 and abs(pt - th) < kink_band:
                        continue
                    ana = flip * loss_at(pt, params)[1]
                    num = (loss_at(pt + FD_STEP, params)[0]
                           - loss_at(pt - FD_STEP, params)[0]) / (2.0 * FD_STEP)
                    record("scalar", ana, num, f"scalar {label} pt={pt:g}", at_kink)
                    for y in (0, 1):
                        record("binary", binary_ana[2 * i + y], binary_num[2 * i + y],
                               f"binary {label} pt={pt:g} label={y}", at_kink)

                for pt, z in grid_vectors:
                    at_kink = abs(pt - th) < 1e-12
                    if kink_band > 0 and abs(pt - th) < kink_band:
                        continue
                    # One head call: row 0 is z, rows 2j+1 and 2j+2 move z_j by +h and -h.
                    k, j = len(z), np.arange(len(z))
                    rows = np.repeat(z[None], 2 * k + 1, axis=0)
                    rows[2 * j + 1, j], rows[2 * j + 2, j] = z + FD_STEP, z - FD_STEP
                    losses, grads = softmax_head(rows[None], np.zeros(2 * k + 1, int), [params])
                    num = (losses[0, 1::2] - losses[0, 2::2]) / (2.0 * FD_STEP)
                    for j in range(k):
                        record("softmax", flip * grads[0, 0, j], num[j],
                               f"softmax {label} pt={pt:g} component {j}", at_kink)
    return worst, sections
