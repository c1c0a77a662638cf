"""Real numpy implementations of the benchmark algorithms.

These kernels exist so the repository's claims are grounded: the workload
*models* predict performance, while these functions prove the algorithms
themselves are implemented and correct.  The test-suite cross-checks each
kernel against numpy/scipy references, and pytest-benchmark times them on
the host for the harness's sanity benches.

* :func:`stream_triad` — the STREAM triad kernel;
* :func:`blocked_lu` — right-looking blocked LU with partial pivoting, the
  algorithm inside HPL;
* :func:`lu_solve` — forward/back substitution completing the Linpack solve;
* :func:`hpl_residual` — the scaled residual HPL uses as its pass criterion;
* :func:`blocked_jacobi_eigh` — a blocked cyclic-Jacobi symmetric
  eigensolver, the LAX driver's algorithm class.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

__all__ = [
    "stream_triad", "blocked_lu", "lu_solve", "hpl_residual",
    "blocked_jacobi_eigh",
]


# --------------------------------------------------------------------------
# STREAM triad
# --------------------------------------------------------------------------
def stream_triad(a: np.ndarray, b: np.ndarray, c: np.ndarray,
                 scalar: float = 3.0) -> None:
    """a[i] = b[i] + scalar * c[i] — 24 bytes/element, 2 FLOPs/element."""
    np.multiply(c, scalar, out=a)
    np.add(a, b, out=a)


# --------------------------------------------------------------------------
# Blocked LU (the HPL algorithm)
# --------------------------------------------------------------------------
def blocked_lu(a: np.ndarray, nb: int = 32) -> Tuple[np.ndarray, np.ndarray]:
    """Right-looking blocked LU with partial pivoting, in place.

    Returns ``(lu, piv)`` where ``lu`` holds L (unit lower, below the
    diagonal) and U (upper, including diagonal), and ``piv`` is the pivot
    row chosen at each elimination step — the same convention as LAPACK's
    ``dgetrf``.  The panel/update structure is exactly HPL's: factor an
    ``nb``-wide panel, apply its pivots and triangular solve to the
    trailing matrix, then one DGEMM update.
    """
    a = np.array(a, dtype=np.float64, copy=True)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError("matrix must be square")
    if nb < 1:
        raise ValueError("block size must be >= 1")
    piv = np.arange(n)

    for k0 in range(0, n, nb):
        k1 = min(k0 + nb, n)
        # -- panel factorisation with partial pivoting --------------------
        for j in range(k0, k1):
            p = j + int(np.argmax(np.abs(a[j:, j])))
            if a[p, j] == 0.0:
                raise np.linalg.LinAlgError(f"singular at column {j}")
            if p != j:
                a[[j, p], :] = a[[p, j], :]
                piv[j], piv[p] = piv[p], piv[j]
            a[j + 1:, j] /= a[j, j]
            if j + 1 < k1:
                a[j + 1:, j + 1:k1] -= np.outer(a[j + 1:, j], a[j, j + 1:k1])
        if k1 == n:
            break
        # -- triangular solve on U12: L11^{-1} A12 -------------------------
        for j in range(k0, k1):
            a[j + 1:k1, k1:] -= np.outer(a[j + 1:k1, j], a[j, k1:])
        # -- trailing update (DGEMM): A22 -= L21 U12 -----------------------
        a[k1:, k1:] -= a[k1:, k0:k1] @ a[k0:k1, k1:]
    return a, piv


def lu_solve(lu: np.ndarray, piv: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``A x = b`` from :func:`blocked_lu` output.

    Applies the row permutation, then forward substitution with the unit
    lower factor and back substitution with the upper factor.
    """
    n = lu.shape[0]
    x = np.asarray(b, dtype=np.float64)[np.asarray(piv)].copy()
    for i in range(1, n):                     # L y = P b
        x[i] -= lu[i, :i] @ x[:i]
    for i in range(n - 1, -1, -1):            # U x = y
        x[i] = (x[i] - lu[i, i + 1:] @ x[i + 1:]) / lu[i, i]
    return x


def hpl_residual(a: np.ndarray, x: np.ndarray, b: np.ndarray) -> float:
    """HPL's scaled residual: ||Ax−b||∞ / (ε ||A||∞ ||x||∞ N).

    HPL declares a run PASSED when this is below 16.0.
    """
    n = a.shape[0]
    eps = np.finfo(np.float64).eps
    num = np.linalg.norm(a @ x - b, np.inf)
    den = eps * np.linalg.norm(a, np.inf) * np.linalg.norm(x, np.inf) * n
    if den == 0.0:
        # A zero candidate solution (or zero matrix) cannot pass.
        return float("inf") if num > 0 else 0.0
    return float(num / den)


# --------------------------------------------------------------------------
# Blocked Jacobi eigensolver (the LAX driver algorithm class)
# --------------------------------------------------------------------------
def blocked_jacobi_eigh(a: np.ndarray, tol: float = 1e-10,
                        max_sweeps: int = 30) -> Tuple[np.ndarray, np.ndarray]:
    """Cyclic-Jacobi symmetric eigendecomposition.

    Returns ``(eigenvalues, eigenvectors)`` with eigenvalues ascending,
    matching ``numpy.linalg.eigh``.  Convergence is declared when the
    off-diagonal Frobenius mass falls below ``tol`` relative to the
    diagonal mass.
    """
    a = np.array(a, dtype=np.float64, copy=True)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError("matrix must be square")
    if not np.allclose(a, a.T, atol=1e-12 * max(1.0, float(np.abs(a).max()))):
        raise ValueError("matrix must be symmetric")
    v = np.eye(n)

    for _sweep in range(max_sweeps):
        off = np.sqrt(np.sum(np.tril(a, -1) ** 2))
        scale = max(np.sqrt(np.sum(np.diag(a) ** 2)), 1e-300)
        if off / scale < tol:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) < 1e-300:
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * apq)
                t = np.sign(theta) / (abs(theta) + np.sqrt(theta * theta + 1.0))
                if theta == 0.0:
                    t = 1.0
                c = 1.0 / np.sqrt(t * t + 1.0)
                s = t * c
                rot = np.array([[c, s], [-s, c]])
                a[[p, q], :] = rot.T @ a[[p, q], :]
                a[:, [p, q]] = a[:, [p, q]] @ rot
                v[:, [p, q]] = v[:, [p, q]] @ rot
    eigenvalues = np.diag(a).copy()
    order = np.argsort(eigenvalues)
    return eigenvalues[order], v[:, order]
