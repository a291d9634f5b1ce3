"""Covariance-weighting kernels and the lag weights they induce.

A kernel here is an even function with kappa(0) = 1 whose Toeplitz matrices
``[kappa((i-j)/s)]`` are positive definite for every scale ``s > 0`` — the
property that makes the long-run covariance estimator nonnegative definite.
The estimators use a fixed set: the Bartlett, Parzen and Quadratic Spectral
kernels.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

#: kernel names accepted in configs and on the command line
BARTLETT_NAME = "bartlett"
PARZEN_NAME = "parzen"
QS_NAME = "qs"


@dataclass(frozen=True)
class KernelSpec:
    """A kernel function together with its smoothness metadata.

    Attributes
    ----------
    name : str
        Config name.
    evaluate : callable
        Vectorized evaluation; must be even with evaluate(0) = 1.
    nondifferentiable_points : tuple of float
        Points on (0, inf) where the kernel is not C^1 (used by the
        gradient-existence check); the mirror points are implied by evenness.
    compact_support : bool
        Whether the kernel vanishes outside a bounded interval.
    """

    name: str
    evaluate: Callable[[np.ndarray], np.ndarray]
    nondifferentiable_points: tuple[float, ...]
    compact_support: bool


def _bartlett(x: np.ndarray) -> np.ndarray:
    ax = np.abs(x)
    return np.where(ax < 1.0, 1.0 - ax, 0.0)


def _parzen(x: np.ndarray) -> np.ndarray:
    ax = np.abs(x)
    out = np.zeros_like(ax)
    inner = ax <= 0.5
    outer = ~inner & (ax <= 1.0)
    ai = ax[inner]
    out[inner] = 1.0 - 6.0 * ai * ai + 6.0 * ai * ai * ai
    ao = 1.0 - ax[outer]
    out[outer] = 2.0 * ao * ao * ao
    return out


#: |x| up to which the quadratic-spectral z = 1.2 pi |x| stays finite
_QS_FAR = 4.7e307


def _quadratic_spectral(x: np.ndarray) -> np.ndarray:
    # closed form 25/(12 pi^2 x^2) * (sin(z)/z - cos(z)) with z = 6 pi x / 5,
    # equivalently (3/z^2)(sin(z)/z - cos(z)).  Near zero the subtraction
    # cancels catastrophically, so the points there are overwritten with the
    # series 1 - z^2/10 + z^4/280 (next term z^6/15120 is below machine
    # precision at the branch point).  Past |x| = _QS_FAR, z would overflow
    # to inf, where sin and cos are NaN, so |x| is clamped to it: the form
    # gives the limit 0 there.  A NaN stays NaN.
    z = 1.2 * np.pi * np.minimum(np.abs(x), _QS_FAR)
    # near z = 0 the closed form divides by zero or overflows, and those
    # points are overwritten below; a huge z gives 3 / inf = 0, the limit
    with np.errstate(all="ignore"):
        out = np.asarray(3.0 / (z * z) * (np.sin(z) / z - np.cos(z)))
    small = z < 5e-3
    if small.any():
        zs = z[small]
        out[small] = 1.0 - zs * zs / 10.0 + zs**4 / 280.0
    return out


BARTLETT = KernelSpec(
    name=BARTLETT_NAME,
    evaluate=_bartlett,
    nondifferentiable_points=(1.0,),
    compact_support=True,
)
PARZEN = KernelSpec(
    name=PARZEN_NAME,
    evaluate=_parzen,
    nondifferentiable_points=(),
    compact_support=True,
)
QUADRATIC_SPECTRAL = KernelSpec(
    name=QS_NAME,
    evaluate=_quadratic_spectral,
    nondifferentiable_points=(),
    compact_support=False,
)

_KERNELS = (BARTLETT, PARZEN, QUADRATIC_SPECTRAL)

#: a bandwidth at or below this weighs every lag past zero 0, as M = 0 does:
#: its ratios i/M are >= 1e300, where every kernel is 0 (Bartlett's and
#: Parzen's supports end at 1, and the quadratic-spectral closed form is 0
#: once z * z overflows, past |x| = 3.6e153).  Dividing by it could
#: overflow to inf with a warning; above it, i/M stays finite for any order
#: m < 1.7e8, so its rows are evaluated
_TINY = 1e-300


def kernel_names() -> tuple[str, ...]:
    return tuple(sorted(kernel.name for kernel in _KERNELS))


def get_kernel(name: str) -> KernelSpec:
    """Look up a kernel by config name."""
    for kernel in _KERNELS:
        if kernel.name == name:
            return kernel
    raise ValueError(f"unknown kernel {name!r}; known kernels: {', '.join(kernel_names())}")


def lag_weights(kernel: KernelSpec, m: int, bandwidths) -> np.ndarray:
    """The weights kappa(i/M) at lags i = 0 .. m-1, one row per bandwidth M.

    ``bandwidths`` is a sequence of a block's b bandwidths, and the weights
    are b x m.  The kernel is evaluated once, at lags 1 .. m-1 of every row
    whose M > _TINY; lag 0 weighs exactly 1.0.  A zero bandwidth means
    "keep only lag zero": every other weight of its row is 0, and the row is
    not evaluated.  A bandwidth at or below _TINY is taken as zero: every
    kernel weighs its ratios i/M >= 1e300 zero anyway.  Nothing is checked:
    m >= 1, and the rules' defined outcomes are floats >= 0.
    """
    lowest = min(bandwidths, default=0.0)
    w = np.zeros((len(bandwidths), m))
    w[:, 0] = 1.0
    if lowest > _TINY:
        rows, positive = slice(None), bandwidths  # every row: no gather
    else:
        rows = [i for i, bw in enumerate(bandwidths) if bw > _TINY]
        positive = [bandwidths[i] for i in rows]
    if m == 1 or not positive:
        return w
    # one row divides by its float, a block by a column of them: the same
    # bits, and a block of one then costs what a lone row did
    M = float(positive[0]) if len(positive) == 1 else np.array(positive, dtype=float)[:, None]
    w[rows, 1:] = kernel.evaluate(np.arange(1, m) / M)
    return w
