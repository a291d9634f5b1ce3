"""Bandwidth rules computed from the prewhitened residual matrix Z.

Three rules are provided; :func:`default_rule` gives the two data-driven
ones the per-kernel plug-in constants of Andrews (1991, Econometrica 59):

* :class:`AndrewsRule` — fits univariate AR(1) models to the rows of Z by
  OLS and plugs the fitted parameters into one of two weighted ratios
  (``j = 1`` or ``j = 2``), giving ``M = c1 * (alpha_j * n)**c2``.
* :class:`NeweyWestRule` — the "real-bandwidth" nonparametric rule built
  from the autocovariances of the scalar series ``omega' Z`` up to Newey
  and West's rectangular lag cutoff.
* :class:`FixedBRule` — a deterministic bandwidth, either proportional to
  the residual length (``M = b * (n - p)``) or an explicit constant.

The data-driven rules can be *undefined* at degenerate inputs (an exact-zero
denominator, a unit AR(1) root, or a plug-in value that over- or underflows
to a non-finite number at extreme scales); that is reported as a typed
:class:`BandwidthOutcome` rather than an exception, because undefinedness of
the estimator at specific response vectors is part of the object under study.
Zero-denominator detection is exact-zero on the computed floating-point sums,
not tolerance-based: the degenerate set has Lebesgue measure zero and is only
hit by constructed inputs, and a tolerance would spuriously flag
near-degenerate but valid data.

The engine enters in two steps: :func:`bandwidth_sums`, one stacked call
over a block's residuals, and :func:`compute_bandwidth`, which decides each
response from its own sums.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from ._linalg import readonly
from .kernels import BARTLETT_NAME, PARZEN_NAME, QS_NAME, KernelSpec
from .model import is_integer

#: reasons a data-driven bandwidth can be undefined
RHO_UNDEFINED = "RhoUndefined"
RHO_UNIT = "RhoUnit"
SIGMA_ALL_ZERO = "SigmaAllZero"
DENOMINATOR_ZERO = "DenominatorZero"
PLUG_IN_NOT_FINITE = "PlugInNotFinite"

#: omega presets accepted wherever a weight vector is expected
OMEGA_PRESETS = ("ones", "zero-first")


@dataclass(frozen=True)
class BandwidthOutcome:
    """A defined bandwidth m or why it is undefined; unchecked, as its producers guarantee both."""

    m: float | None
    reason: str | None = None

    @property
    def is_defined(self) -> bool:
        return self.m is not None


def resolve_omega(omega, k: int) -> np.ndarray:
    """Materialize a rule's checked omega for k rows; ValueError where it does not fit k."""
    if omega == "ones":
        return np.ones(k)
    if omega == "zero-first":
        if k < 2:
            raise ValueError('omega preset "zero-first" needs k >= 2 (weights must not be all zero)')
        out = np.ones(k)
        out[0] = 0.0
        return out
    if len(omega) != k:
        raise ValueError(f"omega has length {len(omega)}, expected k = {k}")
    return np.array(omega)


def _validate_omega_field(omega):
    if isinstance(omega, str):
        if omega not in OMEGA_PRESETS:
            raise ValueError(f"unknown omega preset {omega!r}; presets: {OMEGA_PRESETS}")
        return omega
    out = tuple(float(v) for v in np.atleast_1d(np.asarray(omega, dtype=float)))
    if not all(map(math.isfinite, out)):
        raise ValueError("omega weights must be finite")
    if any(v < 0 for v in out):
        raise ValueError("omega weights must be nonnegative")
    if not any(v > 0 for v in out):
        raise ValueError("omega weights must not be all zero")
    return out


def _check_positive(name: str, value) -> None:
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be positive and finite, got {value}")


@dataclass(frozen=True)
class AndrewsRule:
    """AR(1) plug-in bandwidth ``M = c1 * (alpha_j * n)**c2``.

    Parameters
    ----------
    j : {1, 2}
        Which weighted ratio of fitted AR(1) parameters to use.
    c1, c2 : float
        Positive finite constants; :func:`default_rule` gives Andrews's
        (1991) per-kernel values.
    omega : "ones", "zero-first", or sequence of float
        Nonnegative finite row weights (not all zero), resolved against the
        design's k when an engine is built.

    A constant or weight out of range raises ValueError naming it.
    """

    j: int
    c1: float
    c2: float
    omega: str | tuple[float, ...] = "ones"

    def __post_init__(self):
        if isinstance(self.j, (bool, np.bool_)) or self.j not in (1, 2):
            raise ValueError(f"j must be 1 or 2, got {self.j}")
        _check_positive("c1", self.c1)
        _check_positive("c2", self.c2)
        object.__setattr__(self, "omega", _validate_omega_field(self.omega))


@dataclass(frozen=True)
class NeweyWestRule:
    """Nonparametric (real-bandwidth) rule ``M = cbar2 * ((num/den)**2 * n)**cbar3``.

    ``num`` and ``den`` are sums of the autocovariances of the scalar
    series ``omega' Z`` over the lags |i| <= floor(4 * (n/100)**(2/9)),
    each with rectangular weight 1: Newey & West's (1994) cutoff. The one
    cutoff serves every kernel; a kernel-dependent truncation exponent in
    NW94 was not verified against the source, so 2/9 is kept throughout.

    ``cbar1`` must be a positive integer (a zero exponent is not a valid
    member of this rule family), ``cbar2`` and ``cbar3`` positive and
    finite, and the ``omega`` weights as for :class:`AndrewsRule`; anything
    else raises ValueError naming the field.
    """

    cbar1: int
    cbar2: float
    cbar3: float
    omega: str | tuple[float, ...] = "ones"

    def __post_init__(self):
        if not (is_integer(self.cbar1) and self.cbar1 >= 1):
            raise ValueError(f"cbar1 must be a positive integer, got {self.cbar1}")
        _check_positive("cbar2", self.cbar2)
        _check_positive("cbar3", self.cbar3)
        object.__setattr__(self, "cbar1", int(self.cbar1))
        object.__setattr__(self, "omega", _validate_omega_field(self.omega))


@dataclass(frozen=True)
class FixedBRule:
    """Deterministic bandwidth: ``M = b * (n - p)`` with b in (0, 1], or a
    positive finite constant m; anything else raises ValueError."""

    b: float | None = None
    m: float | None = None

    def __post_init__(self):
        if (self.b is None) == (self.m is None):
            raise ValueError("specify exactly one of b (fraction) or m (explicit bandwidth)")
        if self.b is not None and not 0.0 < self.b <= 1.0:
            raise ValueError(f"b must lie in (0, 1], got {self.b}")
        if self.m is not None:
            _check_positive("explicit bandwidth m", self.m)


BandwidthRule = AndrewsRule | NeweyWestRule | FixedBRule

#: config names for the rules
RULE_NAMES = ("andrews", "newey-west", "fixed-b")

#: Andrews's (1991, Econometrica 59, automatic-bandwidth section) plug-in
#: constants per kernel, (exponent, constant, rate): AndrewsRule reads a row
#: as (j, c1, c2) and NeweyWestRule, as Newey & West (1994) do, as
#: (cbar1, cbar2, cbar3)
_PLUG_IN_DEFAULTS = {
    BARTLETT_NAME: (1, 1.1447, 1.0 / 3.0),
    PARZEN_NAME: (2, 2.6614, 1.0 / 5.0),
    QS_NAME: (2, 1.3221, 1.0 / 5.0),
}


def default_rule(kind: str, kernel) -> BandwidthRule:
    """Build a rule of the given kind with the standard constants for ``kernel``.

    ``kernel`` may be a :class:`~hactest.kernels.KernelSpec` or its name, a
    known kernel for every kind.  Both data-driven rules take their
    constants from Andrews (1991); the fixed-b rule is b = 1.
    """
    if kind not in RULE_NAMES:
        raise ValueError(f"unknown bandwidth rule {kind!r}; rules: {RULE_NAMES}")
    if isinstance(kernel, KernelSpec):
        kernel = kernel.name
    if not (isinstance(kernel, str) and kernel in _PLUG_IN_DEFAULTS):
        raise ValueError(f"unknown kernel {kernel!r}; kernels: {tuple(_PLUG_IN_DEFAULTS)}")
    if kind == "fixed-b":
        return FixedBRule(b=1.0)
    exponent, constant, rate = _PLUG_IN_DEFAULTS[kernel]
    if kind == "andrews":
        return AndrewsRule(j=exponent, c1=constant, c2=rate)
    return NeweyWestRule(cbar1=exponent, cbar2=constant, cbar3=rate)


def rectangular_cutoff(n: int) -> int:
    """The conventional rectangular lag-weight cutoff floor(4 (n/100)^{2/9})."""
    return int(math.floor(4.0 * (n / 100.0) ** (2.0 / 9.0)))


#: entries each constants cache keeps; one per distinct weights and shape
_CACHED_SHAPES = 256


@functools.lru_cache(maxsize=_CACHED_SHAPES)
def _row_weights(omega, k: int) -> np.ndarray:
    """Read-only ``resolve_omega(omega, k)``, resolved once per (omega, k)."""
    return readonly(resolve_omega(omega, k))


@functools.lru_cache(maxsize=_CACHED_SHAPES)
def _nw_constants(cbar1: int, omega, k: int, m: int, n: int):
    """What the Newey-West sums need besides Z, computed once per (cbar1, omega, k, m, n).

    Returns the row weights omega, the number of weighted lags (0 up to the
    rectangular cutoff, at most m), and a 2 x (m - 1) array whose rows
    weigh the lags 1 .. m-1: the rectangular weights w_i, and
    ``|i|**cbar1 * w_i``.  The arrays are read-only, since every call
    shares them.
    """
    lags = min(rectangular_cutoff(n) + 1, m)
    w = np.zeros(m)
    w[:lags] = 1.0
    lag_w = np.arange(m)[1:] ** cbar1 * w[1:]
    return _row_weights(omega, k), lags, readonly(np.stack((w[1:], lag_w)))


@np.errstate(all="ignore")
def _am_sums(Z: np.ndarray, rule: AndrewsRule) -> list:
    """Per response, ``(rho undefined, rho unit, alpha denominator, alpha numerator)``.

    Row i of a response's Z gets a fitted AR(1) coefficient
    ``rho_i = sum_{j>=2} Z_ij Z_i(j-1) / sum_{j<=m-1} Z_ij^2`` and innovation
    variance ``sigma_i^2 = (m-1)^{-1} sum_{j>=2} (Z_ij - rho_i Z_i(j-1))^2``;
    the flags say whether some lag denominator is exactly 0 and whether
    some ``rho_i**2`` is exactly 1, and the sums weigh the rows' ratios
    into alpha_1 or alpha_2.
    """
    k, m = Z.shape[1:]
    omega = _row_weights(rule.omega, k)
    lead, lag = Z[:, :, 1:], Z[:, :, :-1]
    den_rho = np.einsum("bij,bij->bi", lag, lag)
    rho = np.einsum("bij,bij->bi", lead, lag) / den_rho
    resid = lead - rho[:, :, None] * lag
    sigma2 = np.einsum("bij,bij->bi", resid, resid) / (m - 1)
    one_minus = 1.0 - rho
    s4 = sigma2 * sigma2
    # the weight dots are one BLAS dot per response, as a 1-D ``omega @``
    # is; an einsum sums in another order
    den_alpha = np.vecdot(s4 / one_minus**4, omega)
    if rule.j == 1:
        num_alpha = np.vecdot(4.0 * rho**2 * s4 / (one_minus**6 * (1.0 + rho) ** 2), omega)
    else:
        num_alpha = np.vecdot(4.0 * rho**2 * s4 / one_minus**8, omega)
    rho_undefined = (den_rho == 0.0).any(axis=1).tolist()
    rho_unit = (rho * rho == 1.0).any(axis=1).tolist()
    return list(zip(rho_undefined, rho_unit, den_alpha.tolist(), num_alpha.tolist()))


@np.errstate(all="ignore")
def _nw_sums(Z: np.ndarray, rule: NeweyWestRule, n: int) -> list:
    """Per response, ``(sbar_0, [sum_i w_i sbar_i, sum_i |i|**cbar1 w_i sbar_i])``.

    The sums run over the lags 1 .. m-1, with ``s = omega' Z``, the
    autocovariances ``sbar_i = m^{-1} sum_{j>i} s_j s_{j-i}`` and the
    rectangular weights ``w_i = 1`` up to ``rectangular_cutoff(n)`` and 0
    past it.  Each autocovariance and each weighted sum is one BLAS dot per
    response, as the 1-D ``@`` is, so every response gets the bits it gets
    alone.  Only weighted lags are formed; the rest stay exact zeros, which
    leave both weighted sums bitwise unchanged.
    """
    b, k, m = Z.shape
    omega, lags, weights = _nw_constants(rule.cbar1, rule.omega, k, m, n)
    s = omega @ Z
    sbar = np.zeros((b, m))
    for i in range(lags):
        np.vecdot(s[..., i:], s[..., : m - i], sbar[..., i])
    sbar /= m
    return list(zip(sbar[:, 0].tolist(), np.vecdot(sbar[:, None, 1:], weights).tolist()))


def bandwidth_sums(rule: BandwidthRule, Z: np.ndarray, n: int) -> list:
    """What :func:`compute_bandwidth` reads at each response of a (b, k, m) residual stack.

    One stacked computation for the block; the entries are Python floats
    and flags, None for the fixed rule, which reads no residuals.  The
    stack divides by zero on the responses whose decision returns at an
    exact-zero check, and its sums overflow or meet an inf at extreme
    scales; the arithmetic runs with floating-point warnings off, since the
    decision reads the flags first and reports a non-finite plug-in as
    PlugInNotFinite.
    """
    if isinstance(rule, AndrewsRule):
        return _am_sums(Z, rule)
    if isinstance(rule, NeweyWestRule):
        return _nw_sums(Z, rule, n)
    return [None] * len(Z)


def _plug_in(m: float) -> BandwidthOutcome:
    """A plug-in bandwidth, or PlugInNotFinite when its sums over- or underflowed."""
    if not math.isfinite(m):
        return BandwidthOutcome(None, PLUG_IN_NOT_FINITE)
    return BandwidthOutcome(float(m))


def compute_bandwidth(rule: BandwidthRule, sums, n: int, p: int) -> BandwidthOutcome:
    """One response's bandwidth, from its entry of :func:`bandwidth_sums`.

    The exact-zero and unit-root checks come first, in that order, then the
    plug-in in Python floats: ``M = c1 * (alpha_j * n)**c2`` for
    :class:`AndrewsRule`, ``M = cbar2 * ((num/den)**2 * n)**cbar3`` for
    :class:`NeweyWestRule`, with ``den = sbar_0 + 2 sum_i w_i sbar_i`` and
    ``num = 2 sum_i |i|**cbar1 w_i sbar_i`` (the autocovariances are even in
    the lag); :class:`FixedBRule` gives ``b * (n - p)`` or its explicit m.
    The engine's build guarantees that ``sums`` came from a k x (n - p)
    residual matrix with n - p >= 2.
    """
    if isinstance(rule, AndrewsRule):
        rho_undefined, rho_unit, den_alpha, num_alpha = sums
        if rho_undefined:
            return BandwidthOutcome(None, RHO_UNDEFINED)
        if rho_unit:
            return BandwidthOutcome(None, RHO_UNIT)
        if den_alpha == 0.0:
            return BandwidthOutcome(None, SIGMA_ALL_ZERO)
        alpha = num_alpha / den_alpha
        return _plug_in(rule.c1 * (alpha * n) ** rule.c2)
    if isinstance(rule, NeweyWestRule):
        sbar0, (weighted, lag_weighted) = sums
        den = sbar0 + 2.0 * weighted
        if den == 0.0:
            return BandwidthOutcome(None, DENOMINATOR_ZERO)
        num = 2.0 * lag_weighted
        return _plug_in(rule.cbar2 * ((num / den) ** 2 * n) ** rule.cbar3)
    if rule.m is not None:
        return BandwidthOutcome(float(rule.m))
    return BandwidthOutcome(float(rule.b * (n - p)))
