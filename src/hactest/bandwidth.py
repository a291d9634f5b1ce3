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
near-degenerate but valid data.  :func:`compute_bandwidth` is the engine's entry.
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


def bandwidth_am(Z: np.ndarray, rule: AndrewsRule, n: int) -> BandwidthOutcome:
    """Andrews-style AR(1) plug-in bandwidth from the residual matrix Z.

    Row i of Z gets a fitted AR(1) coefficient
    ``rho_i = sum_{j>=2} Z_ij Z_i(j-1) / sum_{j<=m-1} Z_ij^2`` and innovation
    variance ``sigma_i^2 = (m-1)^{-1} sum_{j>=2} (Z_ij - rho_i Z_i(j-1))^2``
    where m is the number of columns; the weighted ratios alpha_1/alpha_2
    combine them across rows.
    """
    k, m = Z.shape
    omega = _row_weights(rule.omega, k)

    lead, lag = Z[:, 1:], Z[:, :-1]
    den_rho = np.einsum("ij,ij->i", lag, lag)
    if np.any(den_rho == 0.0):
        return BandwidthOutcome(None, RHO_UNDEFINED)
    rho = np.einsum("ij,ij->i", lead, lag) / den_rho
    if np.any(rho * rho == 1.0):
        return BandwidthOutcome(None, RHO_UNIT)
    resid = lead - rho[:, None] * lag
    sigma2 = np.einsum("ij,ij->i", resid, resid) / (m - 1)

    one_minus = 1.0 - rho
    s4 = sigma2 * sigma2
    den_alpha = float(omega @ (s4 / one_minus**4))
    if den_alpha == 0.0:
        return BandwidthOutcome(None, SIGMA_ALL_ZERO)
    if rule.j == 1:
        num_alpha = float(omega @ (4.0 * rho**2 * s4 / (one_minus**6 * (1.0 + rho) ** 2)))
    else:
        num_alpha = float(omega @ (4.0 * rho**2 * s4 / one_minus**8))
    alpha = num_alpha / den_alpha
    return _plug_in(rule.c1 * (alpha * n) ** rule.c2)


def rectangular_cutoff(n: int) -> int:
    """The conventional rectangular lag-weight cutoff floor(4 (n/100)^{2/9})."""
    return int(math.floor(4.0 * (n / 100.0) ** (2.0 / 9.0)))


#: entries each constants cache keeps; one per distinct (rule, k, m, n)
_CACHED_SHAPES = 256


@functools.lru_cache(maxsize=_CACHED_SHAPES)
def _row_weights(omega, k: int) -> np.ndarray:
    """Read-only ``resolve_omega(omega, k)``, resolved once per (omega, k)."""
    return readonly(resolve_omega(omega, k))


@functools.lru_cache(maxsize=_CACHED_SHAPES)
def _nw_constants(rule: NeweyWestRule, k: int, m: int, n: int):
    """What bandwidth_nw needs besides Z, computed once per (rule, k, m, n).

    Returns the row weights omega, the number of weighted lags (0 up to the
    rectangular cutoff, at most m), the lag weights w over lags 0 .. m-1,
    and ``|i|**cbar1 * w_i`` over lags 1 .. m-1; the arrays are read-only,
    since every call shares them.
    """
    lags = min(rectangular_cutoff(n) + 1, m)
    w = np.zeros(m)
    w[:lags] = 1.0
    lag_w = np.arange(m)[1:] ** rule.cbar1 * w[1:]
    return _row_weights(rule.omega, k), lags, readonly(w), readonly(lag_w)


def bandwidth_nw(Z: np.ndarray, rule: NeweyWestRule, n: int) -> BandwidthOutcome:
    """Newey-West style real-bandwidth rule from the residual matrix Z.

    With ``s = omega' Z`` and autocovariances
    ``sbar_i = m^{-1} sum_{j>|i|} s_j s_{j-|i|}``, the bandwidth is
    ``cbar2 * ((num/den)**2 * n)**cbar3`` where ``den = sum_i w(i) sbar_i``
    and ``num = sum_i |i|**cbar1 w(i) sbar_i`` over |i| < m, with the
    rectangular weights ``w(i) = 1`` up to ``rectangular_cutoff(n)`` and 0
    past it.
    """
    k, m = Z.shape
    omega, lags, w, lag_w = _nw_constants(rule, k, m, n)

    s = omega @ Z
    # only weighted lags contribute; the rest stay exact zeros, which leave
    # both dot products below bitwise unchanged
    sbar = np.zeros(m)
    for i in range(lags):
        sbar[i] = s[i:] @ s[: m - i] / m
    # the |i| sums run over negative and positive lags; sbar is even in the lag
    den = float(w[0] * sbar[0] + 2.0 * (w[1:] @ sbar[1:]))
    if den == 0.0:
        return BandwidthOutcome(None, DENOMINATOR_ZERO)
    num = float(2.0 * (lag_w @ sbar[1:]))
    return _plug_in(rule.cbar2 * ((num / den) ** 2 * n) ** rule.cbar3)


def _plug_in(m: float) -> BandwidthOutcome:
    """A plug-in bandwidth, or PlugInNotFinite when its sums over- or underflowed."""
    if not math.isfinite(m):
        return BandwidthOutcome(None, PLUG_IN_NOT_FINITE)
    return BandwidthOutcome(float(m))


def bandwidth_kv(rule: FixedBRule, n: int, p: int) -> BandwidthOutcome:
    """Fixed bandwidth: b * (n - p), or the explicit constant; never undefined."""
    if rule.m is not None:
        return BandwidthOutcome(float(rule.m))
    return BandwidthOutcome(float(rule.b * (n - p)))


def compute_bandwidth(rule: BandwidthRule, Z: np.ndarray | None, n: int, p: int) -> BandwidthOutcome:
    """Dispatch to the rule; the engine's build guarantees Z is k x (n - p), n - p >= 2."""
    if isinstance(rule, AndrewsRule):
        return bandwidth_am(Z, rule, n)
    if isinstance(rule, NeweyWestRule):
        return bandwidth_nw(Z, rule, n)
    return bandwidth_kv(rule, n, p)
