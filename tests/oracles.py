"""Independent reference implementations used to pin expected values.

Everything here is deliberately written with explicit Python loops over
scalars (plus `math`), independent of the package's vectorized numpy
routines, so that agreement between the two is evidence of correctness
rather than shared code.  The exceptions are the full-lag Newey-West
bandwidth, the scalar AR(1) recursion and the per-response convolved lag
sum, which pin bitwise equalities and so keep numpy's arithmetic, and the
scalar kernel evaluation, the kernel Toeplitz matrix, the AR(1) correlation
matrix, the witness design and the stand-alone gradient check at the end,
conveniences that only tests need.  The scalar statistic at the end is the
one-response pipeline the library's block engine replaced, kept with its
numpy calls so that the engine must reproduce it bitwise.
"""
import math

import numpy as np

from hactest import TestEngine
from hactest.bandwidth import RULE_NAMES, compute_bandwidth
from hactest.diagnostics import FD_AGREEMENT, FD_STEPS, _gradient_exists_at
from hactest.kernels import lag_weights
from hactest.prewhiten import (
    BANDWIDTH_UNDEFINED,
    POSITIVE_DEFINITE,
    RECOLOR_SINGULAR,
    SINGULAR_NONNEG,
    VAR_RANK_DEFICIENT,
    ZERO,
    min_definite_n,
)

EPS = float(np.finfo(np.float64).eps)


def am_bandwidth_oracle(Z, omega, j, c1, c2, n):
    """Direct-summation AR(1) plug-in bandwidth.

    Returns ``("ok", M)`` or ``(reason, None)`` with the same exact-zero
    undefinedness checks, in the same row-by-row order, as the library.
    """
    Z = [list(map(float, row)) for row in np.asarray(Z, dtype=float)]
    omega = list(map(float, omega))
    k = len(Z)
    m = len(Z[0])
    dens = []
    for i in range(k):
        den = 0.0
        for t in range(0, m - 1):
            den += Z[i][t] ** 2
        dens.append(den)
    if any(d == 0.0 for d in dens):
        return "RhoUndefined", None
    rhos = []
    for i in range(k):
        num = 0.0
        for t in range(1, m):
            num += Z[i][t] * Z[i][t - 1]
        rhos.append(num / dens[i])
    if any(r * r == 1.0 for r in rhos):
        return "RhoUnit", None
    sig2s = []
    for i in range(k):
        acc = 0.0
        for t in range(1, m):
            acc += (Z[i][t] - rhos[i] * Z[i][t - 1]) ** 2
        sig2s.append(acc / (m - 1))
    alpha_den = 0.0
    for i in range(k):
        alpha_den += omega[i] * sig2s[i] ** 2 / (1.0 - rhos[i]) ** 4
    if alpha_den == 0.0:
        return "SigmaAllZero", None
    alpha_num = 0.0
    for i in range(k):
        r, s2 = rhos[i], sig2s[i]
        if j == 1:
            alpha_num += omega[i] * 4.0 * r**2 * s2**2 / ((1.0 - r) ** 6 * (1.0 + r) ** 2)
        else:
            alpha_num += omega[i] * 4.0 * r**2 * s2**2 / (1.0 - r) ** 8
    alpha = alpha_num / alpha_den
    return "ok", c1 * (alpha * n) ** c2


def am_sigma2_oracle(z_row, rho):
    """Innovation variance of one row at a given AR coefficient."""
    z = list(map(float, z_row))
    m = len(z)
    acc = 0.0
    for t in range(1, m):
        acc += (z[t] - rho * z[t - 1]) ** 2
    return acc / (m - 1)


def nw_bandwidth_oracle(Z, omega, cbar1, cbar2, cbar3, weights, n):
    """Direct-summation Newey-West style bandwidth.

    ``weights`` is the resolved lag-weight list (w_0 = 1, ...); lags past
    its end get weight zero.  Returns ``("ok", M)`` or
    ``("DenominatorZero", None)``.
    """
    Z = [list(map(float, row)) for row in np.asarray(Z, dtype=float)]
    omega = list(map(float, omega))
    k = len(Z)
    m = len(Z[0])
    s = []
    for t in range(m):
        acc = 0.0
        for i in range(k):
            acc += omega[i] * Z[i][t]
        s.append(acc)

    def sbar(i):
        acc = 0.0
        for t in range(i, m):
            acc += s[t] * s[t - i]
        return acc / m

    lmax = min(len(weights) - 1, m - 1)
    den = weights[0] * sbar(0)
    for i in range(1, lmax + 1):
        den += 2.0 * weights[i] * sbar(i)
    if den == 0.0:
        return "DenominatorZero", None
    num = 0.0
    for i in range(1, lmax + 1):
        num += 2.0 * i**cbar1 * weights[i] * sbar(i)
    return "ok", cbar2 * ((num / den) ** 2 * n) ** cbar3


def nw_bandwidth_full_lag_oracle(Z, omega, weights, cbar1, cbar2, cbar3, n):
    """The Newey-West bandwidth with an autocovariance at every lag 0 .. m-1.

    Unlike the scalar oracles this one keeps the library's numpy arithmetic
    (``weights`` is the resolved length-m weight vector): the library
    computes autocovariances only at weighted lags, and agreement with this
    full-lag form must be bitwise.  Returns M, or None for DenominatorZero.
    """
    Z = np.asarray(Z, dtype=float)
    m = Z.shape[1]
    s = np.asarray(omega, dtype=float) @ Z
    sbar = np.empty(m)
    for i in range(m):
        sbar[i] = s[i:] @ s[: m - i] / m
    w = np.asarray(weights, dtype=float)
    lags = np.arange(m)
    den = float(w[0] * sbar[0] + 2.0 * (w[1:] @ sbar[1:]))
    if den == 0.0:
        return None
    num = float(2.0 * ((lags[1:] ** cbar1 * w[1:]) @ sbar[1:]))
    return cbar2 * ((num / den) ** 2 * n) ** cbar3


def rectangular_cutoff_oracle(n):
    return math.floor(4.0 * (n / 100.0) ** (2.0 / 9.0))


def gamma_oracle(Z, lag):
    """Sample autocovariance matrix at a (possibly negative) lag."""
    Z = np.asarray(Z, dtype=float)
    k, m = Z.shape
    i = abs(int(lag))
    out = [[0.0] * k for _ in range(k)]
    for a in range(k):
        for b in range(k):
            acc = 0.0
            for t in range(i, m):
                acc += Z[a][t] * Z[b][t - i]
            out[a][b] = acc / m
    out = np.array(out)
    return out if lag >= 0 else out.T


def kernel_lag_sum_oracle(Z, kernel_fn, m_value):
    """Weighted lag sum assembled entry by entry over all index pairs."""
    Z = np.asarray(Z, dtype=float)
    k, m = Z.shape
    out = [[0.0] * k for _ in range(k)]
    for a in range(k):
        for b in range(k):
            acc = 0.0
            for t in range(m):
                for u in range(m):
                    if m_value == 0.0:
                        w = 1.0 if t == u else 0.0
                    else:
                        w = float(kernel_fn(abs(t - u) / m_value))
                    acc += w * Z[a][t] * Z[b][u]
            out[a][b] = acc / m
    return np.array(out)


def convolved_lag_sum(Z, kernel, m_value):
    """Z W Z' / m for one (r, m) block of rows, one convolution per row.

    The per-response lag sum the library ran before its engine took blocks,
    weights included: the kernel at lags 1 .. m-1 over M, lag 0 weighing
    1.0, only lag 0 at M = 0, and weight 0 where i / M is past 1e300 or
    overflows.  The engine's stacked lag sum must reproduce it bitwise,
    matrix by matrix.
    """
    m = Z.shape[1]
    w = np.zeros(m)
    w[0] = 1.0
    if m_value > 0.0 and m > 1:
        with np.errstate(all="ignore"):
            x = np.arange(1, m) / m_value
            w[1:] = np.where(x > 1e300, 0.0, kernel.evaluate(x))
    reach = int(w.nonzero()[0][-1])
    v = np.concatenate((w[reach:0:-1], w[: reach + 1]))
    ZW = np.array([np.convolve(row, v)[reach : reach + m] for row in Z])
    return ZW @ Z.T / m


def ar1_path_oracle(rho, z):
    """The AR(1) recursion u_1 = z_1, u_t = rho u_{t-1} + sqrt(1-rho^2) z_t, one step at a time.

    Takes a 1-D z.  The library runs the same recursion over a whole block
    of rows at once; it must agree with this loop bitwise, row by row.
    """
    scale = np.sqrt(1.0 - rho * rho)
    zl = np.asarray(z, dtype=float).tolist()
    out = [zl[0]]
    prev = zl[0]
    for t in range(1, len(zl)):
        prev = rho * prev + scale * zl[t]
        out.append(prev)
    return np.array(out)


def ar1_transfer_matrix(rho, n):
    """Row-by-row coefficient matrix of the stationary AR(1) recursion.

    ``u = L z`` for iid standard normal z reproduces the recursion
    u_1 = z_1, u_t = rho u_{t-1} + sqrt(1 - rho^2) z_t, so ``L L'`` is the
    implied covariance.
    """
    scale = math.sqrt(1.0 - rho * rho)
    rows = [[0.0] * n for _ in range(n)]
    rows[0][0] = 1.0
    for t in range(1, n):
        for s in range(n):
            rows[t][s] = rho * rows[t - 1][s]
        rows[t][t] = scale
    return np.array(rows)


def ar1_cov_oracle(rho, n):
    L = ar1_transfer_matrix(rho, n)
    out = [[0.0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            acc = 0.0
            for s in range(n):
                acc += L[a][s] * L[b][s]
            out[a][b] = acc
    return np.array(out)


def qs_kernel_oracle(x):
    """Quadratic spectral kernel through its power series.

    kappa(x) = 3 sum_{i>=1} (-1)^(i+1) z^(2i-2) * 2i / (2i+1)!  with
    z = 1.2 pi |x|; the series converges for every z and is summed to
    machine precision, giving a route independent of both the closed form
    and any fixed-order Taylor cut.
    """
    z = 1.2 * math.pi * abs(float(x))
    if z > 12.0:
        # the alternating series cancels catastrophically out here, while
        # the closed form has no small difference left to lose
        return 3.0 / z**2 * (math.sin(z) / z - math.cos(z))
    total = 0.0
    term_pow = 1.0  # z^(2i-2) at i = 1
    fact = 6.0  # (2i+1)! at i = 1
    i = 1
    while True:
        term = term_pow * (2.0 * i) / fact * (1 if i % 2 == 1 else -1)
        total += term
        if abs(term) < 1e-22 * max(1.0, abs(total)) and i > 3:
            break
        i += 1
        term_pow *= z * z
        fact *= (2 * i) * (2 * i + 1)
    return 3.0 * total


def kernel_eval(kernel, x):
    """A kernel at scalar or array ``x``, as a float for a scalar."""
    out = kernel.evaluate(np.asarray(x, dtype=float))
    if np.ndim(out) == 0:
        return float(out)
    return out


def toeplitz_statistic_oracle(problem, outcome, kernel_fn):
    """The statistic's covariance through its Toeplitz representation.

    Omega = (n / m) * B W B' where W_ij = kappa(|i - j| / M) (identity when
    M = 0), with ``B = R (X'X)^{-1} recolor Z`` built here from the
    problem and the outcome's ``recolor`` and ``Z``.  Independent of the
    lag-sum assembly used by the library.
    """
    B = problem.R @ np.linalg.solve(problem.X.T @ problem.X, outcome.recolor @ outcome.Z)
    q, m = B.shape
    n = problem.n
    mv = outcome.bandwidth.m
    W = [[0.0] * m for _ in range(m)]
    for a in range(m):
        for b in range(m):
            if mv == 0.0:
                W[a][b] = 1.0 if a == b else 0.0
            else:
                W[a][b] = float(kernel_fn(abs(a - b) / mv))
    W = np.array(W)
    return (n / m) * B @ W @ B.T


def kernel_hits_kink_oracle(kernel, m_value, m):
    """Scan every lag i = 1 .. m-1 for a ratio i / M on a kink of kappa."""
    for d in kernel.nondifferentiable_points:
        for i in range(1, m):
            if abs(i / m_value - d) <= 1e-9 * max(1.0, d):
                return True
    return False


def toeplitz_weights(kernel, m: int, bandwidth: float) -> np.ndarray:
    """The m x m Toeplitz matrix with entries kappa((i-j)/bandwidth).

    Built from the library's ``lag_weights``, so the diagonal is exactly 1.0
    and a zero bandwidth gives the identity.
    """
    w = lag_weights(kernel, m, [bandwidth])[0]
    idx = np.arange(w.size)
    return w[np.abs(idx[:, None] - idx[None, :])]


def ar1_matrix(rho, n: int) -> np.ndarray:
    """AR(1) correlation matrix Lambda(rho) with entries rho**|i-j|, |rho| < 1."""
    rho = float(rho)
    if not abs(rho) < 1.0:
        raise ValueError(f"AR(1) parameter must satisfy |rho| < 1, got {rho}")
    n = int(n)
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    idx = np.arange(n)
    return rho ** np.abs(idx[:, None] - idx[None, :])


def witness_design(n: int, k: int, p: int, rule_kind: str = "fixed-b"):
    """A design and response at which the prewhitened estimate is exactly PD.

    Returns ``(y, X)`` with integer-valued entries arranged so that, in exact
    float arithmetic: the OLS residual of y is the constant vector, every
    VAR coefficient block is exactly zero, the data-driven bandwidths are
    exactly zero, and the covariance estimate is positive definite for all
    three bandwidth rules (with unit score weights).

    Requires ``n >= p(k+1) + k``, the shape bound at q = k — plus one more
    observation for the autoregressive plug-in rule, whose per-row variances
    need one extra residual column.  The bound is sharp: below it no design
    at all gives a defined statistic when every coefficient is restricted.
    """
    if rule_kind not in RULE_NAMES:
        raise ValueError(f"rule_kind must be one of {RULE_NAMES}, got {rule_kind!r}")
    n, k, p = int(n), int(k), int(p)
    if k < 1 or p < 1:
        raise ValueError(f"need k >= 1 and p >= 1, got k = {k}, p = {p}")
    need = min_definite_n(k, k, p) + (1 if rule_kind == "andrews" else 0)
    if n < need:
        raise ValueError(
            f"witness design needs n >= {need} for k = {k}, p = {p}, "
            f"rule {rule_kind!r}; got n = {n}"
        )
    # Unit lower-bidiagonal differences: every column of H sums to zero
    # exactly (so X' e+ = 0 in floats), any k rows of H are unimodular, and
    # spacing the rows p+1 apart makes all VAR cross-products exactly zero.
    g = np.eye(k) - np.eye(k, k=-1)
    h = np.vstack([-g.sum(axis=0), g])
    X = np.zeros((n, k))
    X[np.arange(k + 1) * (p + 1), :] = h
    return np.ones(n), X


def gradient_exists(problem, y, config, *, check_numerically=True):
    """``diagnose``'s differentiability check at a y where the statistic is defined."""
    engine = TestEngine(problem, config)
    y = np.asarray(y, dtype=float)
    result = engine.result(y)
    assert result.defined, "the gradient check needs a defined statistic"
    return _gradient_exists_at(engine, y, result, check_numerically)


def rank_oracle(a):
    """Numeric rank of one matrix: singular values above max(shape) * eps * sigma_max."""
    s = np.linalg.svd(a, compute_uv=False)
    if s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > max(a.shape) * EPS * s[0]))


def quadratic_form_oracle(omega, d):
    """d' omega^{-1} d for one positive definite omega, guaranteed >= 0."""
    try:
        L = np.linalg.cholesky(omega)
        w = np.linalg.solve(L, d)
        return float(w @ w)
    except np.linalg.LinAlgError:
        vals, vecs = np.linalg.eigh(omega)
        tol = max(vals[-1], 0.0) * omega.shape[0] * EPS
        keep = vals > tol
        if not np.any(keep):
            return 0.0
        proj = vecs.T @ d
        return float(np.sum(proj[keep] ** 2 / vals[keep]))


class ScalarStatistic:
    """The statistic one response at a time, as the library computed it
    before its engine took blocks: the same numpy calls on 1-D and 2-D
    arrays, with no leading axis anywhere.  The kernel lag sum is
    ``convolved_lag_sum`` above, the per-response form the engine's stacked
    one replaced.  The bandwidth rule is the library's own, which runs per
    response on both paths and has oracles of its own above.

    ``evaluate(y)`` returns ``(kind, t, omega, bandwidth)``: ``kind`` is the
    undefinedness reason, or the definiteness class of a well-defined
    estimate; ``t`` is 0.0 unless the class is PositiveDefinite; ``omega``
    is None when undefined; ``bandwidth`` is the rule outcome (None before
    step III).
    """

    def __init__(self, problem, config):
        self.problem, self.config = problem, config
        X, R = problem.X, problem.R
        n, k = problem.n, problem.k
        xtx = X.T @ X
        self.beta_op = np.linalg.solve(xtx, X.T)
        self.annihilator = np.eye(n) - X @ self.beta_op
        self.g = np.linalg.solve(xtx, R.T).T
        self.eye_k = np.eye(k)
        self.resid_tol = max(n, k) * EPS

    def fit(self, y):
        X = self.problem.X
        n, k, p = self.problem.n, self.problem.k, self.config.p
        u = self.annihilator @ y
        if np.linalg.norm(u) <= self.resid_tol * np.linalg.norm(y):
            return None
        V = X.T * u
        V1 = np.vstack([V[:, p - l : n - l] for l in range(1, p + 1)])
        Vp = V[:, p:]
        if rank_oracle(V1) < k * p:
            return None
        try:
            A = np.linalg.solve(V1 @ V1.T, V1 @ Vp.T).T
        except np.linalg.LinAlgError:  # exactly singular normal equations
            return None
        D = self.eye_k - A.reshape(k, p, k).sum(axis=1)
        s = np.linalg.svd(D, compute_uv=False)
        if s[-1] == 0.0 or s[0] / s[-1] > 1.0 / EPS:
            recolor = None
        else:
            recolor = np.linalg.solve(D, self.eye_k)
        return V1, A, Vp - A @ V1, recolor

    def evaluate(self, y):
        y = np.asarray(y, dtype=float)
        problem, config = self.problem, self.config
        n, p = problem.n, config.p
        fit = self.fit(y)
        if fit is None:
            return VAR_RANK_DEFICIENT, 0.0, None, None
        V1, _A, Z, recolor = fit
        if recolor is None:
            return RECOLOR_SINGULAR, 0.0, None, None
        bw = compute_bandwidth(config.rule, Z, n, p)
        if not bw.is_defined:
            return BANDWIDTH_UNDEFINED, 0.0, None, bw
        B = (self.g @ recolor) @ Z
        lag_sum = convolved_lag_sum(B, config.kernel, bw.m)
        omega = n * lag_sum
        omega = (omega + omega.T) / 2.0
        rank = rank_oracle(B)
        if rank == 0:
            return ZERO, 0.0, omega, bw
        rank = min(rank, max(Z.shape[1] - V1.shape[0], 0))
        if rank < B.shape[0]:
            return SINGULAR_NONNEG, 0.0, omega, bw
        d = problem.R @ (self.beta_op @ y) - problem.r
        return POSITIVE_DEFINITE, quadratic_form_oracle(omega, d), omega, bw


def fd_gradients_agree_oracle(problem, config, y):
    """``diagnose``'s finite-difference check with one scalar statistic per bumped response."""
    scalar = ScalarStatistic(problem, config)
    n = y.shape[0]
    grads = []
    for h in FD_STEPS:
        g = np.empty(n)
        for j in range(n):
            bump = np.zeros(n)
            bump[j] = h
            t_up = scalar.evaluate(y + bump)[1]
            t_dn = scalar.evaluate(y - bump)[1]
            g[j] = (t_up - t_dn) / (2.0 * h)
        grads.append(g)
    scale = max(1.0, max(float(np.linalg.norm(g)) for g in grads))
    worst = max(float(np.linalg.norm(a - b)) for a, b in zip(grads[:-1], grads[1:]))
    return worst <= FD_AGREEMENT * scale
