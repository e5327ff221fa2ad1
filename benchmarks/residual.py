"""Independent output check: the true relative residual of a TT solution.

Everything here is plain numpy on the raw cores, so a change to the
package's own rounding, inner products or matvec cannot change the check.
The residual b - A x is formed as an exact TT sum (no truncation) and its
norm is taken through a left-to-right QR sweep, which stays accurate when
the residual is many orders of magnitude below the norm of b.
"""

from __future__ import annotations

import numpy as np


def _matvec_cores(op_cores, x_cores):
    """Cores of A x, ranks multiplied (rho * r), no rounding."""
    out = []
    for a, x in zip(op_cores, x_cores):
        p0, m, _, p1 = a.shape
        r0, _, r1 = x.shape
        g = np.einsum("pijq,rjs->priqs", a, x)
        out.append(g.reshape(p0 * r0, m, p1 * r1))
    return out


def _difference_cores(b_cores, y_cores):
    """Cores of b - y as an exact block sum."""
    d = len(b_cores)
    if d == 1:
        return [b_cores[0] - y_cores[0]]
    out = []
    for k, (b, y) in enumerate(zip(b_cores, y_cores)):
        if k == d - 1:
            y = -y
        if k == 0:
            out.append(np.concatenate([b, y], axis=2))
        elif k == d - 1:
            out.append(np.concatenate([b, y], axis=0))
        else:
            c = np.zeros((b.shape[0] + y.shape[0], b.shape[1], b.shape[2] + y.shape[2]))
            c[: b.shape[0], :, : b.shape[2]] = b
            c[b.shape[0] :, :, b.shape[2] :] = y
            out.append(c)
    return out


def frobenius_norm(cores) -> float:
    """Norm of the tensor a core chain denotes, by QR orthogonalization."""
    carry = np.ones((1, 1))
    for c in cores[:-1]:
        m = np.tensordot(carry, c, axes=([1], [0]))
        _, carry = np.linalg.qr(m.reshape(-1, m.shape[2]))
    return float(np.linalg.norm(np.tensordot(carry, cores[-1], axes=([1], [0]))))


def true_relative_residual(op, b, x) -> float:
    """||b - A x|| / ||b|| from the cores of A, b and x."""
    r = _difference_cores(b.cores, _matvec_cores(op.op_cores, x.cores))
    return frobenius_norm(r) / frobenius_norm(b.cores)


def check_solution(op, b, x, gate: float):
    """Return (res_true, reason); reason is None when x passes the gate."""
    if tuple(c.shape[1] for c in x.cores) != tuple(b.dims):
        return None, f"solution dims {x.dims} differ from right-hand side {b.dims}"
    if not all(np.all(np.isfinite(c)) for c in x.cores):
        return None, "solution has non-finite core entries"
    res = true_relative_residual(op, b, x)
    if not np.isfinite(res) or res > gate:
        return res, f"true residual {res:.3e} above the accuracy gate {gate:.1e}"
    return res, None
