"""Streaming two-sided low-rank approximation of TT tensors (STTA).

A frame, a pair of random Gaussian TT tensors (dimension-reduction maps),
turns any TT vector into small per-mode sketch matrices via partial
contractions.  Sketches are linear in the input, so a sum of tensors can be
sketched term by term, the pairs added, and the sum recovered once, with
pseudo-inverse core recovery in the style of the generalized Nystrom method
(Kressner, Vandereycken and Voorhaar, arXiv:2208.02600).

Two of the rounding layer's sums are built on this (``tt.RoundedSum`` is
the third).  ``StreamedSum`` keeps only the sketch pair of each term
against one fixed frame, as the solvers' solution does.  Each
Psi_mu = L_{mu-1} C_mu R_{mu+1} of a kept pair is held in whichever form
has fewer entries: the dense (l n) x r matrix, or its three factors (the
left contraction, the term's core, the right contraction).  So a term of
ranks t costs sum_mu min(l n r, l t + t n t' + t' r) entries besides its
Omegas, and the sum rebuilds each factored Psi with the products of
``stream_sketch``, bitwise the same matrix.
``streamed_mode_sum``, the preconditioner's apply, sums mode products of
one tensor: it streams them through frames of doubling rank, each drawn by
``StreamFrame.create``, climbing until an a-posteriori check shows the
frame had room for the sum.
"""

from __future__ import annotations

import numpy as np

from .tt import (
    RoundSpec,
    ShapeMismatch,
    TTVector,
    attainable_ranks,
    check_count,
    mode_multiply,
    tt_add,
    tt_round,
    tt_zero,
)

# Relative singular-value cutoff for the cross-matrix pseudo-inverses.
PINV_RCOND = 1e-12
# The cutoff of streamed_mode_sum, near roundoff.  Its sums can span many
# orders of magnitude (the preconditioner amplifies the slowest mode of a
# Markov chain by ~3.5e6), and cutting their cross matrices at PINV_RCOND
# dropped real components: the markov4-spgmres applies then varied enough
# from call to call that 3 of 200 solve seeds missed the breakdown stop at
# iteration 6 (none of 500 with this cutoff).
SUM_PINV_RCOND = 1e-14
# streamed_mode_sum: the first frame's recovery rank (frame i has
# LADDER_START * 2**i) and every frame's left oversampling.  Inside a
# markov4-spgmres solve most preconditioner applies (results of rank 2-14)
# end on the first frame; with oversampling 8 or 12 some applies there
# missed rel_tol against the sequential sum.
LADDER_START = 16
LADDER_OVERSAMPLING = 16


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
    ranks = [check_count(r, "ranks") for r in ranks]
    if len(ranks) != d - 1:
        raise ValueError("ranks must have length d-1")
    rng = np.random.default_rng(seed)
    full = [1, *ranks, 1]
    cores = []
    for k, n in enumerate(dims):
        c = rng.standard_normal((full[k], n, full[k + 1]))
        c *= np.sqrt(1.0 / (full[k] * n * full[k + 1]))
        cores.append(c)
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
        ranks = [check_count(r, "recovery_ranks") for r in recovery_ranks]
        if len(ranks) != len(dims) - 1:
            raise ValueError("recovery_ranks must have length d-1")
        oversampling = check_count(oversampling, "oversampling")
        ranks = [min(r, f) for r, f in zip(ranks, attainable_ranks(dims))]
        lranks = [r + oversampling for r in ranks]
        ss = np.random.SeedSequence(seed)
        s_right, s_left = ss.spawn(2)
        return cls(
            right=tt_drm_new(dims, ranks, seed=s_right),
            left=tt_drm_new(dims, lranks, seed=s_left),
        )

    def leading(self, recovery_ranks) -> "StreamFrame":
        """The frame of the cores' leading blocks: recovery ranks at most
        ``recovery_ranks``, left ranks above them by this frame's margin.

        A leading block of a Gaussian TT-DRM is again one, so the result is
        a valid frame, and it shares memory with this one.
        """
        right = [min(r, c) for r, c in zip(self.right.ranks[1:-1], recovery_ranks)]
        left = [r + lm - rm for r, lm, rm in
                zip(right, self.left.ranks[1:-1], self.right.ranks[1:-1])]

        def blocks(tt, ranks):
            full = [1, *ranks, 1]
            return TTVector([c[: full[k], :, : full[k + 1]] for k, c in enumerate(tt.cores)])

        return StreamFrame(blocks(self.right, right), blocks(self.left, left))


class SketchPair:
    """Per-mode sketches of one tensor against a frame.

    psi[mu] = L_{mu-1} C_mu R_{mu+1} has shape (l_{mu-1} * n_mu, r_mu)
    with l_0 = r_d = 1: the left contraction L_{mu-1} (l_{mu-1} x t_{mu-1}),
    the tensor's core C_mu (t_{mu-1} x n_mu x t_mu) and the right
    contraction R_{mu+1} (t_mu x r_mu); omega[mu] = L_mu R_mu has shape
    (l_mu, r_mu) for mu = 1..d-1.  ``stream_sketch`` returns every psi[mu]
    dense with its factors attached (``factors[mu]`` = (L, C, R)).
    ``kept`` holds per mode only the form with fewer entries, l n r
    against l t + t n t' + t' r, leaving psi[mu] None where it holds the
    factors; ``psi_matrix`` gives the dense matrix of either form, bitwise
    the same.  Pairs from the same frame add entrywise (``combine_pairs``).
    """

    def __init__(self, psi, omega, dims, factors=None):
        self.psi = psi
        self.omega = omega
        self.dims = tuple(dims)
        self.factors = factors

    def psi_matrix(self, mu: int) -> np.ndarray:
        if self.psi[mu] is not None:
            return self.psi[mu]
        lmat, core, rmat = self.factors[mu]
        return _left_product(lmat, core) @ rmat

    def kept(self) -> "SketchPair":
        """This ``stream_sketch`` pair, which carries every psi[mu]'s factors,
        with each psi[mu] in its smaller form.  A factored psi[mu] holds its
        own copy of the core, which in the tensor may be a view into a
        larger array (``tt_round`` returns such cores)."""
        psi, factors = [], []
        for m, f in zip(self.psi, self.factors):
            if m.size <= sum(a.size for a in f):
                psi.append(m)
                factors.append(None)
            else:
                psi.append(None)
                factors.append((f[0], f[1].copy(), f[2]))
        return SketchPair(psi, self.omega, self.dims, factors)

    @property
    def nbytes(self) -> int:
        held = [m for m in self.psi if m is not None] + list(self.omega)
        held += [a for f in self.factors or () if f is not None for a in f]
        return sum(a.nbytes for a in held)


def _left_product(lmat: np.ndarray, core: np.ndarray) -> np.ndarray:
    """L C_mu as an (l n, t) matrix: the product from which ``stream_sketch``
    forms both the next left contraction and Psi_mu."""
    return (lmat @ core.reshape(core.shape[0], -1)).reshape(-1, core.shape[2])


def stream_sketch(t: TTVector, frame: StreamFrame) -> SketchPair:
    """Compute the two-sided sketches of a TT vector.

    One left sweep builds L_mu = Y_{<=mu}^T C_{<=mu} and one right sweep
    builds R_mu = C_{>mu}^T X_{>mu}; Psi and Omega are assembled from them
    without forming any unfolding densely.  The pair carries the factors
    (L_{mu-1}, C_mu, R_{mu+1}) of every Psi_mu beside it.
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
        lc.append(_left_product(lmats[k], t.cores[k]))
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
    factors = [(lmats[mu], t.cores[mu], rmats[mu + 1]) for mu in range(d)]
    return SketchPair(psi, omega, t.dims, factors)


def combine_pairs(pairs, coeffs) -> SketchPair:
    """Entrywise weighted sum of sketch pairs from one frame, with every psi
    dense.  ``pairs`` may be any iterable: a generator keeps one pair alive
    at a time, and a factored psi is formed one mode at a time."""
    acc = None
    for p, c in zip(pairs, coeffs, strict=True):
        if acc is None:
            acc = SketchPair([p.psi_matrix(k) * c for k in range(len(p.psi))],
                             [m * c for m in p.omega], p.dims)
            continue
        # the Omegas' shapes are the frame's ranks, which with the dims fix
        # every Psi's shape
        if p.dims != acc.dims or [m.shape for m in p.omega] != [m.shape for m in acc.omega]:
            raise ShapeMismatch("pairs come from different frames")
        for k in range(len(p.psi)):
            acc.psi[k] += c * p.psi_matrix(k)
        for k, m in enumerate(p.omega):
            acc.omega[k] += c * m
    if acc is None:
        raise ValueError("need at least one pair")
    return acc


def stream_recover(pair: SketchPair, spec: RoundSpec = RoundSpec(),
                   rcond: float = PINV_RCOND) -> TTVector:
    """Reconstruct a TT vector from accumulated sketches.

    The cores carry the truncated-SVD pseudo-inverses of the cross
    matrices (relative cutoff ``rcond``), with each inverse split
    symmetrically between the two neighbouring cores: for
    Omega_mu = U S V^T the left factor V S^{-1/2} closes core mu and
    S^{-1/2} U^T opens core mu+1.  The split keeps the recovered core
    chain norm-balanced, so evaluation does not amplify roundoff the way
    a one-sided pseudo-inverse chain does.  The result is rounded per
    spec so rel_tol/max_rank are honored.
    """
    d = len(pair.psi)
    psis = [pair.psi_matrix(mu) for mu in range(d)]
    if all(np.all(p == 0) for p in psis):
        return tt_zero(pair.dims)
    # truncated SVDs of the cross matrices
    left_half = []  # S^{-1/2} U^T, applied to the l index of psi_{mu+1}
    right_half = []  # V S^{-1/2}, applied to the r index of psi_mu
    for mu, omega in enumerate(pair.omega):
        if not np.any(omega):
            raise DegenerateRecovery(f"zero cross matrix at mode {mu + 1}")
        u, sv, vt = np.linalg.svd(omega, full_matrices=False)
        keep = sv > rcond * sv[0]
        u, sv, vt = u[:, keep], sv[keep], vt[keep]
        inv_sqrt = 1.0 / np.sqrt(sv)
        left_half.append(inv_sqrt[:, None] * u.T)
        right_half.append(vt.T * inv_sqrt[None, :])
    cores = []
    for mu, psi in enumerate(psis):
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

    ``add`` sketches a term against ``frame`` and keeps (and returns) only
    its ``SketchPair.kept`` pair: per mode, Psi_mu dense or as its factors,
    whichever has fewer entries, min(l n r, l t + t n t' + t' r) for a
    term of ranks t, and the Omegas.  ``combine(coeffs)`` forms the
    combined pair of the first len(coeffs) terms (sketches are linear),
    bitwise the pair that the terms' dense sketches would give, and
    recovers it once, rounded at ``spec``.  A start is kept whole and added
    to the recovered sum, with one more rounding at ``spec``.  ``nbytes``
    is the size of the kept pairs.
    """

    def __init__(self, frame: StreamFrame, spec: RoundSpec, start: TTVector | None = None):
        self.frame, self.spec, self.start, self._pairs = frame, spec, start, []

    def add(self, t: TTVector) -> SketchPair:
        self._pairs.append(stream_sketch(t, self.frame).kept())
        return self._pairs[-1]

    @property
    def nbytes(self) -> int:
        return sum(p.nbytes for p in self._pairs)

    def combine(self, coeffs) -> TTVector:
        u = stream_recover(combine_pairs(self._pairs[: len(coeffs)], coeffs), self.spec)
        return u if self.start is None else tt_round(tt_add(self.start, u), self.spec)


def streamed_mode_sum(v: TTVector, matrices, coeffs, seed, spec: RoundSpec) -> TTVector:
    """sum_i c_i M_i v for the mode products M_i v = ``mode_multiply(v,
    matrices[i])``, by one streamed rounding whose frame grows until it has
    room for the sum.

    Mode products keep v's ranks, so the sum's rank bound b is, per mode,
    min(full rank, len(matrices) * rank of v).  Frames i = 0, 1, ... are
    tried in turn: frame i is ``StreamFrame.create`` with recovery rank
    LADDER_START * 2**i, oversampling LADDER_OVERSAMPLING and seed
    [seed, i], cut to b by ``leading``.  So each frame is a fresh draw that
    depends only on the dimensions, the seed, i and, from frame 1 on, the
    bound: a mode's core is drawn at min(LADDER_START * 2**i,
    max(b, LADDER_START)), not larger than the cut keeps, while frame 0 is
    always drawn at LADDER_START.  Against each frame every product is
    formed and sketched in turn, so that no more than one is held at a
    time, c_i times its pair is added into one running pair, and that is
    recovered once (pseudo-inverse cutoff SUM_PINV_RCOND), rounded at
    ``spec.rel_tol``.  The recovery is accepted when, at every mode, the
    recovered rank leaves at least max(4, r/4) of the frame's recovery rank
    r unused, or the frame already reaches the rank bound, where recovery
    is exact.  Only then is the result cut to ``spec.max_rank``, so that
    the cap never makes the frame grow.  ``seed`` must be a nonnegative
    integer.
    """
    check_count(seed, "seed", 0)
    bound = [min(f, len(matrices) * r)
             for f, r in zip(attainable_ranks(v.dims), v.ranks[1:-1])]
    rung = 0
    while True:
        ranks = [min(LADDER_START << rung, max(b, LADDER_START)) for b in bound]
        frame = StreamFrame.create(v.dims, ranks, LADDER_OVERSAMPLING,
                                   seed=[seed, rung]).leading(bound)
        pair = combine_pairs((stream_sketch(mode_multiply(v, m), frame) for m in matrices),
                             coeffs)
        u = stream_recover(pair, RoundSpec(spec.rel_tol), SUM_PINV_RCOND)
        room = zip(u.ranks[1:-1], frame.right.ranks[1:-1], bound)
        if all(r >= b or k <= r - max(4, r // 4) for k, r, b in room):
            return u if spec.max_rank is None else tt_round(u, spec)
        rung += 1
