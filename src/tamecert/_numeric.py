"""The float lane, and the one module of the package that imports numpy.

``feasibility`` and ``forms`` load it on first use (a function-level
``from . import _numeric``), so ``import tamecert``, ``validate`` and ``reduce``
load no numpy.  Floats only search here; ``feasibility`` re-proves exactly.
"""

import numpy as np

from .errors import TamecertError

DAMPED_DECREMENT = 0.25
STEP_FRACTION = 0.9
NEWTON_TOL = 1e-6
GAP_TOL = 1e-10
TAU_STEP = 1e6
MAX_CENTERING_STEPS = 100


def gram_stack(gram_basis, n: int) -> np.ndarray:
    """The exact Gram forms as one float stack, shape (m, n, n); an entry beyond the range of a double
    raises ``TamecertError``, as no float search can read it."""
    try:
        return np.array([[[float(x) for x in row] for row in m] for m in gram_basis], dtype=float).reshape(len(gram_basis), n, n)
    except OverflowError as exc:
        raise TamecertError(f"a closed Gram form has an entry beyond the range of a double ({exc})") from exc


def projection(grams: np.ndarray) -> np.ndarray:
    """The least-squares coefficients of I in span{S_i}, scaled onto the unit sphere."""
    c = np.linalg.lstsq(grams.reshape(len(grams), -1).T, np.eye(grams.shape[1]).ravel(), rcond=None)[0]
    return c / (np.linalg.norm(c) or 1.0)


def min_eigenvalue(matrix) -> float:
    return float(np.linalg.eigvalsh(matrix)[0])


def lambda_min(grams: np.ndarray, c: np.ndarray) -> float:
    """lambda_min(sum c_i S_i)."""
    return min_eigenvalue(np.einsum("i,ijk->jk", c, grams))


def barrier_path(grams: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The last strictly feasible iterate x = (c, t) of the solve, and its dual iterate.

    From c = 0, t = -1, strictly feasible for every problem, Newton steps
    minimize -tau t - log det F - log(1 - |c|^2); tau grows by TAU_STEP until
    the gap bound (n + 1) / tau is below GAP_TOL, so tau = 1, 1e6, 1e12 for
    every n up to 16.  While the decrement delta exceeds DAMPED_DECREMENT, x
    moves by alpha dx with alpha = max(min(1, STEP_FRACTION alpha_max),
    1 / (1 + delta)): STEP_FRACTION of the distance alpha_max to the boundary
    (max_step), with the damped Newton step, which needs no alpha_max, as its floor.
    Below DAMPED_DECREMENT full Newton steps converge quadratically.
    Before the final tau, centering stops there; only the final tau is
    centred to NEWTON_TOL, and the gap bound and the dual iterate are read
    there.  The dual iterate is X = F(x)^-1 / tr F(x)^-1.
    At a centred point tr F^-1 = tau and <S_k / scale, X> = 2 c_k / (r tau),
    r = 1 - |c|^2, so X tends to a dual optimum: PSD, trace one, pairing to
    zero with every S_k.
    """
    n = grams.shape[1]
    scale = max(float(np.linalg.norm(s)) for s in grams)
    scale = scale if scale > 0 else 1.0
    # F(x) = sum_k x_k A_k for x = (c, t), A = (S_1/scale, ..., S_m/scale, -I)
    a = np.concatenate([grams / scale, -np.eye(n)[None]])
    a_flat = a.reshape(len(a), n * n)
    x = np.zeros(len(a))
    x[-1] = -1.0
    good, good_linv = x, np.eye(n)  # F(x) = I here
    tau = 1.0
    while True:
        final = (n + 1) / tau < GAP_TOL
        tol = NEWTON_TOL if final else DAMPED_DECREMENT
        last = np.inf
        for _ in range(MAX_CENTERING_STEPS):
            try:
                dx, delta, linv, w = newton_step(a, a_flat, x, tau)
            except np.linalg.LinAlgError:
                return with_dual(good, good_linv)
            good, good_linv = x, linv
            # centered, or a full step no longer shrinks the decrement: roundoff
            if delta <= tol or last <= delta <= DAMPED_DECREMENT:
                break
            last = delta
            if delta > DAMPED_DECREMENT:
                dx = dx * max(min(1.0, STEP_FRACTION * max_step(w, x[:-1], dx)), 1.0 / (1.0 + delta))
            x = x + dx
        if final:
            return with_dual(good, good_linv)
        tau *= TAU_STEP


def with_dual(x: np.ndarray, linv: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """x and the dual iterate F(x)^-1 / tr F(x)^-1 from the inverse Cholesky factor of F(x)."""
    finv = np.einsum("ki,kj->ij", linv, linv)  # F^-1 = L^-T L^-1
    return x, finv / np.trace(finv)


def newton_step(a: np.ndarray, a_flat: np.ndarray, x: np.ndarray, tau: float) -> tuple[np.ndarray, float, np.ndarray, np.ndarray]:
    """Newton direction and decrement of -tau t - log det F - log(1 - |c|^2) at x = (c, t).

    a is the stack A_k, and a_flat the same stack as rows of length n^2.
    With F = L L^T and W_k = L^-1 A_k L^-T, the gradient of -log det F is
    -tr W_k and its Hessian is <W_j, W_k>.  Also returns L^-1 and the stack
    W_k.  Raises LinAlgError when x is not strictly feasible or the Hessian
    is singular.
    """
    c = x[:-1]
    r = 1.0 - c @ c
    if not r > 0.0:
        raise np.linalg.LinAlgError("outside the coefficient ball")
    linv = np.linalg.inv(np.linalg.cholesky((x @ a_flat).reshape(a.shape[1:])))
    w = linv @ a @ linv.T
    grad = -np.einsum("kii->k", w)
    w_flat = w.reshape(len(x), -1)
    # einsum, not a BLAS product: one summation order whatever the BLAS thread
    # count, and no thread wake-ups (with two threads, a first dim-12 solve
    # took 1 s against 0.1 s)
    hess = np.einsum("ij,kj->ik", w_flat, w_flat)
    grad[-1] -= tau
    grad[:-1] += 2.0 * c / r
    hess[:-1, :-1] += (4.0 / r**2) * np.outer(c, c)
    hess.flat[: -1 : len(x) + 1] += 2.0 / r  # the diagonal of the c block
    dx = -np.linalg.solve(hess, grad)
    return dx, float(np.sqrt(max(-(grad @ dx), 0.0))), linv, w


def max_step(w: np.ndarray, c: np.ndarray, dx: np.ndarray) -> float:
    """The distance alpha_max to the boundary from x = (c, t) along dx.

    w holds the W_k of newton_step at x, so F(x + alpha dx) =
    L (I + alpha W(dx)) L^T with W(dx) = sum dx_k W_k: F stays PD up to
    -1 / lambda_min(W(dx)).  The ball |c + alpha dc| < 1 ends at the
    positive root of |dc|^2 alpha^2 + 2 (c . dc) alpha - (1 - |c|^2) = 0.
    Returns the smaller of the two, inf when neither bounds the step.
    """
    lam = min_eigenvalue((dx @ w.reshape(len(dx), -1)).reshape(w.shape[1:]))
    alpha = -1.0 / lam if lam < 0.0 else np.inf
    dc = dx[:-1]
    dd, cd = dc @ dc, c @ dc
    if dd > 0.0:
        alpha = min(alpha, float((np.sqrt(cd * cd + dd * (1.0 - c @ c)) - cd) / dd))
    return alpha
