"""Streaming two-sided low-rank approximation of TT tensors.

A pair of random Gaussian TT tensors (dimension-reduction maps) turns any
TT vector into small per-mode sketch matrices via partial contractions.
Sketches are linear in the input, so sums of tensors can be accumulated in
sketch space and the result recovered once at the end, with pseudo-inverse
core recovery in the style of the generalized Nystrom method.
"""

from __future__ import annotations

import numpy as np

from .tt import RoundSpec, ShapeMismatch, TTVector, attainable_ranks, tt_add, tt_round, tt_zero

# Relative singular-value cutoff for the cross-matrix pseudo-inverses.
PINV_RCOND = 1e-12


class DegenerateRecovery(ValueError):
    """Recovery hit an all-zero cross matrix against nonzero sketches."""


def tt_drm_new(dims, ranks, seed=0) -> TTVector:
    """Draw a random Gaussian TT tensor used as a dimension-reduction map
    (TT-DRM), with the given interior rank profile.

    Core k has i.i.d. N(0, 1/(l_{k-1} n_k l_k)) entries, so partial
    contractions against it behave like properly scaled Gaussian sketches.
    """
    dims = list(dims)
    d = len(dims)
    ranks = list(ranks)
    if len(ranks) != d - 1:
        raise ValueError("ranks must have length d-1")
    if any(r < 1 for r in ranks):
        raise ValueError("ranks must be positive")
    full = [1] + ranks + [1]
    rng = np.random.default_rng(seed)
    cores = []
    for k in range(d):
        var = 1.0 / (full[k] * dims[k] * full[k + 1])
        cores.append(rng.normal(0.0, np.sqrt(var), size=(full[k], dims[k], full[k + 1])))
    return TTVector(cores)


class StreamFrame:
    """A left/right TT-DRM pair fixed for the lifetime of a sketch stream.

    The right map X has the recovery ranks r_mu; the left map Y oversamples
    them (l_mu = r_mu + oversampling, so l_mu > r_mu always).
    """

    def __init__(self, right: TTVector, left: TTVector):
        if right.dims != left.dims:
            raise ShapeMismatch("left/right DRM dims differ")
        for lm, rm in zip(left.ranks[1:-1], right.ranks[1:-1]):
            if lm <= rm:
                raise ValueError("left ranks must exceed recovery ranks")
        self.right = right
        self.left = left
        self.dims = right.dims

    @classmethod
    def create(cls, dims, recovery_ranks, oversampling: int = 20, seed=0) -> "StreamFrame":
        """Build a frame; recovery ranks are clipped to attainable values."""
        dims = list(dims)
        d = len(dims)
        ranks = list(recovery_ranks)
        if len(ranks) != d - 1:
            raise ValueError("recovery_ranks must have length d-1")
        if oversampling < 1:
            raise ValueError("oversampling must be >= 1")
        ranks = [int(min(r, f)) for r, f in zip(ranks, attainable_ranks(dims))]
        lranks = [r + oversampling for r in ranks]
        ss = np.random.SeedSequence(seed)
        s_right, s_left = ss.spawn(2)
        return cls(
            right=tt_drm_new(dims, ranks, seed=s_right),
            left=tt_drm_new(dims, lranks, seed=s_left),
        )


class SketchPair:
    """Per-mode sketches of one tensor against a frame.

    psi[mu] has shape (l_{mu-1} * n_mu, r_mu) with l_0 = r_d = 1;
    omega[mu] has shape (l_{mu+1 ...}) for mu = 1..d-1.  Pairs from the
    same frame add entrywise.
    """

    def __init__(self, psi, omega, dims):
        self.psi = psi
        self.omega = omega
        self.dims = tuple(dims)


def stream_sketch(t: TTVector, frame: StreamFrame) -> SketchPair:
    """Compute the two-sided sketches of a TT vector.

    One left sweep builds L_mu = Y_{<=mu}^T C_{<=mu} and one right sweep
    builds R_mu = C_{>mu}^T X_{>mu}; Psi and Omega are assembled from them
    without forming any unfolding densely.
    """
    if t.dims != frame.dims:
        raise ShapeMismatch(f"tensor dims {t.dims} do not match frame {frame.dims}")
    d = t.d
    ycores, xcores = frame.left.cores, frame.right.cores
    # left contractions L[mu]: (l_mu, t_mu), mu = 0..d-1; L[0] = 1, and
    # the products L[mu] C_mu as (l_mu n_mu, t_{mu+1}) matrices, which
    # both the next L and Psi_mu take
    lmats = [np.ones((1, 1))]
    lc = []
    for k in range(d):
        c = t.cores[k]
        lc.append((lmats[k] @ c.reshape(c.shape[0], -1)).reshape(-1, c.shape[2]))
        if k < d - 1:
            y = ycores[k]
            lmats.append(y.reshape(-1, y.shape[2]).T @ lc[k])
    # right contractions R[mu]: (t_mu, r_mu), mu = 1..d; R[d] = 1
    rmats = [None] * (d + 1)
    rmats[d] = np.ones((1, 1))
    for k in range(d - 1, 0, -1):
        c, x = t.cores[k], xcores[k]
        cr = (c.reshape(-1, c.shape[2]) @ rmats[k + 1]).reshape(c.shape[0], -1)
        rmats[k] = cr @ x.reshape(x.shape[0], -1).T
    psi = [lc[mu] @ rmats[mu + 1] for mu in range(d)]
    omega = [lmats[mu] @ rmats[mu] for mu in range(1, d)]
    return SketchPair(psi, omega, t.dims)


def combine_pairs(pairs, coeffs) -> SketchPair:
    """Entrywise weighted sum of sketch pairs from one frame."""
    if len(pairs) != len(coeffs) or not pairs:
        raise ValueError("need matching, nonempty pairs and coeffs")
    first = pairs[0]
    psi = [c * coeffs[0] for c in first.psi]
    omega = [c * coeffs[0] for c in first.omega]
    for p, a in zip(pairs[1:], coeffs[1:]):
        for acc, mats in ((psi, p.psi), (omega, p.omega)):
            if p.dims != first.dims or [m.shape for m in mats] != [m.shape for m in acc]:
                raise ShapeMismatch("pairs come from different frames")
            for k, m in enumerate(mats):
                acc[k] += a * m
    return SketchPair(psi, omega, first.dims)


def stream_recover(pair: SketchPair, spec: RoundSpec = RoundSpec()) -> TTVector:
    """Reconstruct a TT vector from accumulated sketches.

    The cores carry the truncated-SVD pseudo-inverses of the cross
    matrices (relative cutoff PINV_RCOND), with each inverse split
    symmetrically between the two neighbouring cores: for
    Omega_mu = U S V^T the left factor V S^{-1/2} closes core mu and
    S^{-1/2} U^T opens core mu+1.  The split keeps the recovered core
    chain norm-balanced, so evaluation does not amplify roundoff the way
    a one-sided pseudo-inverse chain does.  The result is rounded per
    spec so rel_tol/max_rank are honored.
    """
    d = len(pair.psi)
    if all(np.all(p == 0) for p in pair.psi):
        return tt_zero(pair.dims)
    # truncated SVDs of the cross matrices
    left_half = []  # S^{-1/2} U^T, applied to the l index of psi_{mu+1}
    right_half = []  # V S^{-1/2}, applied to the r index of psi_mu
    for mu, omega in enumerate(pair.omega):
        if not np.any(omega):
            raise DegenerateRecovery(f"zero cross matrix at mode {mu + 1}")
        u, sv, vt = np.linalg.svd(omega, full_matrices=False)
        keep = sv > PINV_RCOND * sv[0]
        u, sv, vt = u[:, keep], sv[keep], vt[keep]
        inv_sqrt = 1.0 / np.sqrt(sv)
        left_half.append(inv_sqrt[:, None] * u.T)
        right_half.append(vt.T * inv_sqrt[None, :])
    cores = []
    for mu in range(d):
        psi = pair.psi[mu]
        n = pair.dims[mu]
        r_next = psi.shape[1]
        lm = psi.shape[0] // n
        block = psi.reshape(lm, n, r_next)
        if mu > 0:
            block = np.tensordot(left_half[mu - 1], block, axes=([1], [0]))
        if mu < d - 1:
            block = np.tensordot(block, right_half[mu], axes=([2], [0]))
        cores.append(block)
    return tt_round(TTVector(cores), spec)


class StreamedSum:
    """Linear combinations start + sum_i c_i t_i of TT vectors, the terms
    from sketches only.

    ``add`` keeps only the sketch pair of a term against ``frame`` and
    returns it; ``combine(coeffs)`` forms the combined pair of the first
    len(coeffs) terms (sketches are linear) and recovers it once, rounded
    at ``spec``.  A start is kept whole and added to the recovered sum,
    with one more rounding at ``spec``.
    """

    def __init__(self, frame: StreamFrame, spec: RoundSpec, start: TTVector | None = None):
        self.frame, self.spec, self.start, self._pairs = frame, spec, start, []

    def add(self, t: TTVector) -> SketchPair:
        pair = stream_sketch(t, self.frame)
        self._pairs.append(pair)
        return pair

    def combine(self, coeffs) -> TTVector:
        u = stream_recover(combine_pairs(self._pairs[: len(coeffs)], coeffs), self.spec)
        return u if self.start is None else tt_round(tt_add(self.start, u), self.spec)
