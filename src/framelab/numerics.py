"""Dense complex linear algebra with one shared floating-point policy.

Operators on the ambient space (frame operators, resolution operators,
coordinate Gram matrices) are dense ``complex128`` numpy arrays of size at
most ``d x d`` or ``n x d``; node-indexed ``n x n`` kernels are kept by
:mod:`framelab.rkhs` as two ``n x r`` factors instead.  There is no sparse or
iterative machinery.  Every Hermitian Gram ``X^H W X`` (frame operators,
span Grams, the Gram behind a rank certificate) is :func:`block_gram`, a sum
over row blocks of the real symmetric product of the float view of
``sqrt(w) * X``, taken whole for a block of at least ``8 * d`` rows or at
most ``BLOCK_ENTRIES // 4`` entries and in tiles of at most a quarter of any
other block's floats, so a square operator (``n = d``) past that size holds
its block, the ``d x d`` sum and one small tile:
:func:`gram` hands it the :func:`weighted_rows` of a table,
and a family made from its formula (:class:`framelab.gallery.RootSource`)
hands it the same blocks (:func:`framelab.frames.frame_operator`).  A verdict that reads only a
spectrum takes eigenvalues without eigenvectors (``vectors=False``).  Node
weights meet a table only here: every mixed product ``X^H W Y`` over the
nodes is :func:`weighted_gram` and every SVD of a weighted table ``sqrt(w) *
X`` is :func:`weighted_svd`.  A sum over the nodes holds its member tables
plus one block, and a generated family holds one block and no table:
:func:`block_gram` and :func:`block_rank` walk the node axis in Gram blocks
of about ``BLOCK_ENTRIES`` entries (:func:`gram_rows`), :func:`weighted_gram`
in quarter blocks (:func:`quarter_rows`), and :func:`newton_update` corrects
a table in place a quarter block of rows at a time.  Each is one loop over
its blocks: a sum starts from the first block's part and adds each later
one's, and every block is released before the next is formed.  Over a
counting measure, where every weight is 1, the Gram blocks are the table's
own rows, read in place (:func:`weighted_rows`).  A table with no columns
is a single block.  Tables are frozen and shared: a family or kernel keeps
the array :func:`adopt` returns, which is its argument itself when that is
a read-only, C-contiguous ``complex128`` array owning its data.
Every rank decision and SVD cutoff comes from :func:`rank_cutoff`.  Every
rank verdict on a family is :func:`framelab.frames.analysis_rank`: full rank
certified from the frame operator, by its spectrum when known and else by
one Cholesky factor (:func:`certifies_full_rank`), or else the
:func:`block_rank` count of the row blocks :func:`block_gram` takes, folded
into a triangular factor, so no rank verdict forms a table or its SVD.  A
pair whose resolution operator certifies both families at full rank
(:func:`certifies_pair_rank`) has that count without either frame
operator.  The frame bounds of a frame operator together with the rule that
refuses to invert it live in :func:`frame_spectrum` and
:func:`require_frame`, and the inverse applied to the rows of a member table
in :meth:`FrameSpectrum.inverse_rows`, so no other module hand-rolls its own
thresholds or dual formula.  :func:`hermitian_eig` holds one copy of its
input beside it, halved, checked and symmetrized in place a quarter block
of rows at a time.  The thresholds are constants:
``DEFAULT_RANK_RTOL`` (overridable only through ``FRAMELAB_RANK_TOL``, read
at each rank decision), ``HERMITIAN_RTOL`` for Hermitian symmetry and
``FRAME_RTOL`` for the frame verdict; the few tolerances and bounds that
callers still pass go through :func:`check_tolerance`.  Complex arrays are
written out as ``[re, im]`` pairs through :func:`complex_pairs`, an ``(m,
2)`` float64 view of the entries in C order; a report renders that view as
``json.dumps`` renders its ``.tolist()``.
"""

from __future__ import annotations

import math
import os
import sys
from typing import NamedTuple

import numpy as np

from .errors import NonSquareError, NotAFrameError, NotHermitianError, ValidationError

DEFAULT_RANK_RTOL = 1e-10
HERMITIAN_RTOL = 1e-12
FRAME_RTOL = 1e-8
# entries per row block of a sum over the nodes, and per dense kernel block
BLOCK_ENTRIES = 1 << 16
MAX_SIZE = 1 << 20  # largest count a builder or a family's dim takes; tables past it fill memory

RANK_TOL_ENV = "FRAMELAB_RANK_TOL"

_EPS = float(np.finfo(np.float64).eps)
# below this Gram trace per table entry, gradual underflow in forming a Gram
# or a resolution operator could exceed a rank certificate's rounding slack
_GRAM_FLOOR = float(np.finfo(np.float64).tiny) / _EPS


def check_tolerance(value: float, name: str) -> None:
    """Refuse a tolerance or bound that is not a finite, nonnegative number."""
    if not math.isfinite(value):
        raise ValidationError(f"{name} must be finite, got {value}")
    if value < 0:
        raise ValidationError(f"{name} must be nonnegative")


def complex_pairs(a) -> np.ndarray:
    """Entries of a complex array in C order as the rows ``[re, im]`` of an ``(m, 2)`` float view.

    A C-contiguous ``complex128`` input is viewed, not copied; ``.tolist()``
    gives the ``[re, im]`` lists the reports write.
    """
    return np.ascontiguousarray(a, dtype=np.complex128).view(np.float64).reshape(-1, 2)


def as_matrix(a) -> np.ndarray:
    """Coerce ``a`` to a finite 2-d complex128 array."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2:
        raise ValidationError(f"expected a 2-d array, got ndim={m.ndim}")
    if not np.all(np.isfinite(m)):
        raise ValidationError("matrix entries must be finite")
    return m


def rank_cutoff(singular_values: np.ndarray, shape: tuple[int, int]) -> float:
    """Bound at or below which a singular value falls outside the numerical rank.

    The cutoff is ``threshold * sigma_max * max(rows, cols)``.  The relative
    threshold is read from ``FRAMELAB_RANK_TOL`` on every call, or is
    ``DEFAULT_RANK_RTOL`` when the variable is unset, and must be a finite
    positive number.
    """
    raw = os.environ.get(RANK_TOL_ENV)
    try:
        threshold = DEFAULT_RANK_RTOL if raw is None else float(raw)
    except ValueError:
        threshold = math.nan
    if not 0 < threshold < math.inf:
        raise ValidationError(f"{RANK_TOL_ENV} must be a finite positive number, got {raw!r}")
    if singular_values.size == 0:
        return 0.0
    return threshold * float(singular_values[0]) * max(shape)


def adopt(table) -> np.ndarray:
    """``table`` itself if it is a read-only, C-contiguous ``complex128`` array owning its data.

    Anything else (a writable array, a view of another array, a
    non-contiguous or a non-complex one, a list) is copied into a fresh
    read-only ``complex128`` array, so later writes to the caller's array never
    reach the copy.  A producer hands a fresh table over by freezing it first
    (:func:`freeze`).
    """
    if type(table) is np.ndarray and table.dtype == np.complex128:
        flags = table.flags
        if flags.owndata and flags.c_contiguous and not flags.writeable:
            return table
    table = np.array(table, dtype=np.complex128, order="C")
    table.setflags(write=False)
    return table


def freeze(table: np.ndarray) -> np.ndarray:
    """Mark a fresh table read-only and return it, so :func:`adopt` keeps it without a copy."""
    table.setflags(write=False)
    return table


def quarter_rows(cols: int) -> int:
    """Rows per quarter block: about ``BLOCK_ENTRIES / 4`` entries over ``cols`` columns.

    Node sums (:func:`weighted_gram`, :func:`newton_update`) and the tables
    :mod:`framelab.gallery` fills in place (phase blocks, random draws) work
    a quarter block at a time, so a temporary over the rows stays small
    beside the member tables.  A table with no columns is one block.
    """
    return max(1, BLOCK_ENTRIES // cols // 4) if cols else sys.maxsize // 4


def gram_rows(cols: int) -> int:
    """Rows per block of :func:`block_gram` over ``cols`` columns.

    A block holds at least ``8 * cols`` rows, since a SYRK over fewer rows
    loses speed against the one product, and about ``BLOCK_ENTRIES`` entries
    beyond that.  A table with no columns is one block.
    """
    return max(8 * cols, BLOCK_ENTRIES // cols) if cols else sys.maxsize


def weighted_rows(table, weights=None):
    """The blocks :func:`block_gram` sums to ``gram(table, weights)``.

    Each is a C-contiguous ``sqrt(w) * table`` over a block of
    :func:`gram_rows` rows; a table with no rows gives one empty block.
    Without ``weights``, or when every weight is 1 (a counting measure, where
    ``sqrt(1) * x`` is ``x``), a block is the table's own rows: a view of a
    C-contiguous ``complex128`` table, else a copy.  Otherwise each is a
    fresh :func:`root_weighted` block.  Consumers only read the blocks.
    """
    if weights is not None and np.all(weights == 1.0):
        weights = None
    step = gram_rows(np.shape(table)[1])
    for start in range(0, len(table) or 1, step):
        stop = start + step
        if weights is None:
            yield np.ascontiguousarray(table[start:stop], dtype=np.complex128)
        else:
            yield root_weighted(table[start:stop], weights[start:stop])


def block_gram(blocks) -> np.ndarray:
    """``B^H B`` for the rows ``B`` of ``blocks`` together, from real symmetric products.

    ``blocks`` yields C-contiguous ``complex128`` row blocks of one column
    count, at least one.  The ``(m, 2d)`` float64 view ``R`` of a block holds
    the real and imaginary part of each column side by side, so ``P = R^T R``
    carries ``Re G = P[re, re] + P[im, im]`` and ``Im G = P[re, im] -
    P[im, re]``.  A block of at least ``8 * d`` rows, the floor of
    :func:`gram_rows`, takes ``P`` whole as one SYRK, about half the work of
    the complex product; ``P`` then holds at most a quarter of the block's
    floats.  So does a block of at most ``BLOCK_ENTRIES // 4`` entries, whose
    tiles would cost more time than the memory they save; its ``P`` holds
    twice the floats of the ``d x d`` sum.  Any other block, one shorter than
    ``8 * d`` rows, takes ``P`` in square tiles of whole components
    with edges at multiples of 32, each tile's product at most a quarter of
    the block's floats where tiles of 32 allow it, so a Gram of at most 32
    components is one tile at any row count.  Diagonal tiles are SYRKs and
    the others GEMMs, the same flops as the one product.  An off-diagonal
    tile's part and its mirror's both come from its product by the two sums
    above, the mirror's from the transpose (conjugating the part would flip
    the sign of a zero imaginary part), so ``G`` is exactly Hermitian, as
    numpy's SYRK, which mirrors its triangle, leaves the one product.  ``G``
    is the first block's part plus each later one's, added a tile at a time.
    A block is released before its last tile is assembled, and each product
    and part before the next, so a generator that makes its blocks holds one
    block at a time.
    """
    total = None
    for block in blocks:
        real = block.view(np.float64)
        del block
        dim = real.shape[1] // 2
        if len(real) >= 8 * dim or len(real) * dim <= BLOCK_ENTRIES // 4:
            width = max(dim, 1)  # a table with no columns is one empty tile
        else:
            width = max(32, math.isqrt(len(real) * dim // 8) // 32 * 32)
        first = total is None
        for lo in range(0, max(dim, 1), width):
            for hi in range(lo, max(dim, 1), width):
                left = real[:, 2 * lo : 2 * (lo + width)]
                product = left.T @ (left if lo == hi else real[:, 2 * hi : 2 * (hi + width)])
                del left
                if lo + width >= dim:  # the last tile
                    del real
                if total is None:  # after the product, so a one-tile block is gone first
                    total = np.empty((dim, dim), dtype=np.complex128)
                _add_tile(total, lo, hi, product, first)
                if lo < hi:  # the mirror, from the transpose
                    _add_tile(total, hi, lo, product.T, first)
                del product
    return total


def _add_tile(total: np.ndarray, top: int, side: int, tile: np.ndarray, first: bool) -> None:
    """The part of :func:`block_gram` that the real product ``tile`` carries, into ``total``.

    It is formed by the two sums of :func:`block_gram` at rows from ``top``
    and columns from ``side``: written there for the first block, added to
    the sum for a later one.
    """
    height, breadth = tile.shape[0] // 2, tile.shape[1] // 2
    dim = len(total)
    target = total.view(np.float64).reshape(dim, dim, 2)[top : top + height, side : side + breadth]
    part = target if first else np.empty((height, breadth, 2))
    np.add(tile[0::2, 0::2], tile[1::2, 1::2], out=part[..., 0])
    np.subtract(tile[0::2, 1::2], tile[1::2, 0::2], out=part[..., 1])
    if not first:
        np.add(target, part, out=target)


def block_rank(blocks, shape: tuple[int, int]) -> int:
    """Number of singular values above :func:`rank_cutoff` of a ``shape`` table, by row blocks.

    ``blocks`` yields the table's C-contiguous ``complex128`` row blocks, as
    :func:`block_gram` takes them.  Each is folded into a triangular factor,
    ``R <- qr([R; block])`` (a tall-skinny QR), so a generator of blocks
    holds one block and ``R`` at a time.  Householder QR is backward stable,
    so ``R`` has the table's singular values up to ``O(eps * sigma_max)``,
    as an SVD of the table gives them.  Once an entry reaches magnitude 1,
    rows are folded scaled by a power of two, which is exact and keeps the
    count, so no Householder step overflows.
    """
    factor = np.empty((0, shape[1]), dtype=np.complex128)
    exponent = 0  # the rows folded so far are those of factor times 2**exponent
    for block in blocks:
        parts = block.view(np.float64)
        top = max(parts.max(initial=0.0), -parts.min(initial=0.0))
        shift = max(exponent, math.frexp(top)[1])
        rows = np.vstack((factor, block))
        del block, parts
        if shift:
            folded, floats = len(factor), rows.view(np.float64)
            np.ldexp(floats[:folded], exponent - shift, out=floats[:folded])
            np.ldexp(floats[folded:], -shift, out=floats[folded:])
        factor, exponent = np.linalg.qr(rows, mode="r"), shift
    s = np.linalg.svd(factor, compute_uv=False)
    return int(np.count_nonzero(s > rank_cutoff(s, shape)))


def gram(table, weights=None) -> np.ndarray:
    """``table^H W table`` (``W = I`` without ``weights``).

    It is the :func:`block_gram` of the table's :func:`weighted_rows`.
    """
    return block_gram(weighted_rows(table, weights))


def weighted_gram(left: np.ndarray, weights: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Mixed product ``left^H W right``, summed over row blocks of the nodes.

    Each block of :func:`quarter_rows` rows adds ``left^T conj(W right)``, its
    ``W right`` conjugated in place, to the first block's, and the sum is
    conjugated at the end.  The only temporary over the nodes is that one
    block of ``W right``, released before the next is formed.  A table's
    product with itself is :func:`gram`.
    """
    step = quarter_rows(right.shape[1])
    product = None
    for start in range(0, len(right) or 1, step):
        stop = start + step
        weighted = weights[start:stop, None] * right[start:stop]
        np.conj(weighted, out=weighted)
        part = left[start:stop].T @ weighted
        product = part if product is None else np.add(product, part, out=product)
        del weighted, part
    return np.conj(product, out=product)


def newton_update(table: np.ndarray, correction: np.ndarray) -> None:
    """``table -= table @ correction`` in place, a quarter block of rows at a time.

    Each row's update reads only that row, so the product never holds more
    than :func:`quarter_rows` rows.
    """
    step = quarter_rows(table.shape[1])
    for start in range(0, table.shape[0], step):
        rows = table[start : start + step]
        rows -= rows @ correction


def root_weighted(table, weights, out=None) -> np.ndarray:
    """``sqrt(w) * table``: each node's row scaled by the root of its weight.

    The product goes to a fresh table, or to ``out``, which may be ``table``
    itself; either way each entry takes the same complex product.
    """
    return np.multiply(table, np.sqrt(weights)[:, None], out=out, dtype=np.complex128, order="C")


def weighted_svd(table: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, ...]:
    """Thin SVD ``(B, s, vh)`` of ``sqrt(w) * table`` cut at :func:`rank_cutoff`.

    ``B`` holds the kept left singular vectors over ``sqrt(w)``, so ``B^H W B
    = I`` and ``sqrt(w) * table = sqrt(w) * B diag(s) vh`` up to the values cut.
    """
    root = np.sqrt(weights)[:, None]
    u, s, vh = np.linalg.svd(root * table, full_matrices=False)
    kept = int(np.count_nonzero(s > rank_cutoff(s, table.shape)))
    return u[:, :kept] / root, s[:kept], vh[:kept]


def hermitian_eig(a, vectors: bool = True) -> tuple[np.ndarray, np.ndarray | None]:
    """Eigendecomposition of a Hermitian matrix.

    Returns ``(eigenvalues, eigenvectors)`` with eigenvalues ascending and
    eigenvectors as unitary columns, so ``a = V @ diag(vals) @ V.conj().T``;
    with ``vectors=False`` the eigenvalues alone come from ``eigvalsh`` and
    the eigenvectors are ``None``.  The input is symmetrized to absorb
    roundoff; asymmetry beyond ``HERMITIAN_RTOL`` times the matrix scale is an
    error.  Both are read from ``a / 2``, one copy of the input in which no
    modulus or difference overflows, a :func:`quarter_rows` block of rows at
    a time through one buffer of that many rows.  The eigensolvers read only
    the lower triangle, so only that triangle of ``a / 2 + conj(a / 2)^T`` is
    formed, in place.
    """
    m = as_matrix(a)
    if m.shape[0] != m.shape[1]:
        raise NonSquareError(f"expected a square matrix, got shape {m.shape}")
    dim = len(m)
    half = m / 2.0  # halved before any sum, which overflows near the float limit
    step = quarter_rows(dim)
    mirror = np.empty((min(step, dim), dim), dtype=np.complex128)
    scale = asymmetry = 0.0
    for lo in range(0, dim, step):
        rows = half[lo : lo + step]
        gap = mirror[: len(rows)]
        np.copyto(gap, half[:, lo : lo + step].T)
        np.conj(gap, out=gap)
        np.subtract(rows, gap, out=gap)
        scale = max(scale, float(np.max(np.abs(rows))))
        asymmetry = max(asymmetry, float(np.max(np.abs(gap))))
        del rows, gap
    if asymmetry > HERMITIAN_RTOL * scale:
        raise NotHermitianError(
            f"asymmetry {2 * asymmetry:.3e} exceeds {HERMITIAN_RTOL:.0e} * scale {2 * scale:.3e}"
        )
    for lo in range(0, dim, step):
        hi = min(lo + step, dim)
        # whole rows, so numpy adds in place without buffers; right of column
        # hi they add -0, which keeps every entry and the sign of a zero, so
        # later blocks still read a / 2 there
        conjugates = mirror[: hi - lo]
        np.copyto(conjugates[:, :hi], half[:hi, lo:hi].T)
        np.conj(conjugates, out=conjugates)
        conjugates[:, hi:] = complex(-0.0, -0.0)
        half[lo:hi] += conjugates
        del conjugates
    del mirror
    if vectors:
        return np.linalg.eigh(half, UPLO="L")
    return np.linalg.eigvalsh(half, UPLO="L"), None


class FrameSpectrum(NamedTuple):
    """Frame bounds of a frame operator and the eigenpairs they were read from.

    ``lower`` is the smallest eigenvalue clamped at 0 and ``upper`` the largest;
    ``values`` ascend and ``vectors`` holds the matching unitary columns, so
    inverses and square roots of the operator need no further factorization.
    A spectrum taken for its bounds alone has no ``vectors``.
    """

    lower: float
    upper: float
    values: np.ndarray
    vectors: np.ndarray | None

    def is_frame(self) -> bool:
        """Whether the lower bound clears ``FRAME_RTOL`` times a nonzero upper bound."""
        return self.lower > FRAME_RTOL * self.upper and self.upper != 0.0

    def inverse_rows(self, members) -> np.ndarray:
        """Each row of ``members`` mapped by the inverse operator: ``members @ S^-T``.

        For the members of a frame this is its canonical dual.  ``S^-T =
        conj(V) diag(1 / values) V^T`` is formed first, so the rows cost one
        ``n x d x d`` product.
        """
        return members @ ((self.vectors.conj() / self.values) @ self.vectors.T)


def frame_spectrum(operator, vectors: bool = True) -> FrameSpectrum:
    """Spectral frame bounds of a Hermitian positive semidefinite operator.

    A caller that reads only the spectrum passes ``vectors=False``, which
    takes the eigenvalues alone.
    """
    values, vectors = hermitian_eig(operator, vectors)
    return FrameSpectrum(float(max(values[0], 0.0)), float(values[-1]), values, vectors)


def require_frame(operator, vectors: bool = True) -> FrameSpectrum:
    """:func:`frame_spectrum` of an operator that must be a frame's.

    Refuses with ``NotAFrameError`` when the spectrum fails
    :meth:`FrameSpectrum.is_frame`, since an inverse would amplify noise
    unboundedly.  ``vectors`` is passed on to :func:`frame_spectrum`.
    """
    spectrum = frame_spectrum(operator, vectors)
    if not spectrum.is_frame():
        raise NotAFrameError(
            f"lower bound {spectrum.lower:.3e} below tolerance {FRAME_RTOL:.0e} "
            f"* {spectrum.upper:.3e}"
        )
    return spectrum


def singular_values(a) -> np.ndarray:
    m = as_matrix(a)
    return np.linalg.svd(m, compute_uv=False)


def certifies_full_rank(gram, shape: tuple[int, int], values=None) -> bool:
    """Whether a Gram matrix certifies that a ``shape`` table has full rank.

    ``gram`` is the Gram matrix of the table's shorter side (``min(rows,
    cols)`` square) and ``values``, when given, its ascending eigenvalues.
    Forming ``gram`` and taking its eigenvalues is backward stable, so by
    Weyl's inequality ``|values[i] - sigma_i**2| <= slack`` with
    ``slack = 4 * (rows + cols) * eps * trace(gram)`` and
    ``trace(gram) = ||table||_F**2``.  Full rank is certified when
    ``values[0] - slack`` exceeds the squared :func:`rank_cutoff` of the
    upper bound ``sqrt(values[-1] + slack)`` on ``sigma_max``: every singular
    value then clears the cutoff.

    Without ``values`` one Cholesky factor decides, with the trace in place
    of ``values[-1]``, since ``sigma_max**2 <= trace``.  The Gram is taken at
    trace 1, ``G = gram / trace``, so no entry overflows and the slack reads
    ``s = 4 * (rows + cols) * eps``; with ``c`` the cutoff of
    ``sqrt(1 + s)``, ``G - (s + c**2 + 2 * (d + 1) * eps) * I`` (``d`` the
    order of ``gram``) is factored, shifted in place on one copy.  When the
    factor ``R`` exists, ``R^H R`` is the shifted matrix plus an error of
    norm at most about ``(d + 1) * u`` (``u = eps / 2``; Higham, *Accuracy
    and Stability of Numerical Algorithms*, 2002, Thm 10.5, with
    ``|| |R^H| |R| || <= ||R||_F**2``, the trace of the shifted matrix, at
    most 1), and normalizing and shifting round by ``u`` each: all below
    ``2 * (d + 1) * eps``, with room for complex arithmetic.  So the least
    eigenvalue of ``G`` exceeds ``s + c**2``, which is the rule above with
    the trace for ``values[-1]``: the factor certifies nothing the
    eigenvalues would not, and a table whose ``sigma_min / sigma_max`` lies
    between the cutoff and about ``sqrt(d)`` times it is left to
    :func:`block_rank`.

    Either way the trace must be finite and above ``rows * cols * tiny /
    eps``, and every entry of ``gram`` finite, so that neither overflow nor
    gradual underflow escapes the slack; otherwise nothing is certified.  An
    uncertified rank is counted by :func:`block_rank`, which takes no Gram and
    no eigenvalues.

    The slack also covers a frame operator ``S = members^T (w * conj(members))``
    over ``n`` nodes in ``d`` dimensions, taken as the Gram of the weighted
    analysis table ``A = sqrt(w) * conj(members)`` of shape ``(n, d)``
    although ``A`` is never formed, and neither are the members of a
    generated gallery family: its blocks are the rows of ``sqrt(w) *
    members`` with the same roundings, which :func:`block_gram` takes as it
    takes a table's.  :func:`block_gram` forms ``conj(S)`` from the real view
    ``R`` of ``sqrt(w) * members``, whose two columns per dimension hold
    ``Re`` and ``Im``.  With unit roundoff ``u = eps / 2``, each entry of
    ``R`` is off by at most ``2u`` relative (the rounded ``sqrt(w)`` and the
    product), so each product of two entries by ``4u``; each entry of ``R^T R``
    is a length-``n`` real sum, off by ``n * u`` times the sum of the
    magnitudes, and one more rounding forms ``Re S`` or ``Im S`` from two of
    them, so each of their ``2n`` products meets at most ``n`` roundings.
    That count holds for any summation order :func:`block_gram` takes: its
    tiles split a block's product by entries, not the sum behind an entry,
    and over ``B`` row blocks of at most ``m`` rows it forms both parts per
    block and adds the blocks' parts, and ``(m - 1) + 1 + (B - 1) <= n``.  By
    Cauchy-Schwarz, both ``|a_j a_k| + |b_j b_k|`` and
    ``|a_j b_k| + |b_j a_k|`` are at most ``|A_j| |A_k|``.  So to first order
    the real and the imaginary part of each entry of ``S`` are off by at most
    ``(n + 5) * u`` times the same entry of ``|A|^H |A|``, and the entry by
    ``(n + 5) * eps / sqrt(2)`` times it.  That error matrix has norm at most
    ``(n + 5) * eps * trace(S) / sqrt(2)``, since
    ``|| |A|^H |A| || <= ||A||_F**2``.  That leaves at least
    ``3 * n * eps * trace(S)`` of the slack ``4 * (n + d) * eps * trace(S)``
    to the symmetrization and the eigensolver's own backward error; the
    factor's has its own term in the shift.
    """
    rows, cols = shape
    with np.errstate(all="ignore"):
        trace = float(np.trace(gram).real)
    if not (_GRAM_FLOOR * rows * cols < trace < math.inf and np.all(np.isfinite(gram))):
        return False
    if values is not None:
        slack = 4 * (rows + cols) * _EPS * trace
        bound = rank_cutoff(np.sqrt([values[-1] + slack]), shape)
        return bool(values[0] - slack > bound * bound)
    slack = 4 * (rows + cols) * _EPS
    bound = rank_cutoff(np.sqrt([1.0 + slack]), shape)
    shifted = gram / trace
    shifted.flat[:: len(shifted) + 1] -= slack + bound * bound + 2 * (len(shifted) + 1) * _EPS
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        return False
    return True


def weighted_energy(table: np.ndarray, weights: np.ndarray) -> float:
    """``||sqrt(w) * table||_F**2``, the trace of the table's weighted Gram.

    One pass over the float view of a C-contiguous ``complex128`` table, whose
    only temporary is the squared row norms; ``inf`` or ``nan``, with no
    warning, past the float range.
    """
    parts = table.view(np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        return float(weights @ np.einsum("ij,ij->i", parts, parts))


def certifies_pair_rank(smallest: float, energies, shape: tuple[int, int]) -> bool:
    """Whether a resolution operator certifies that both tables of a pair have full rank.

    The pair is two ``shape = (n, d)`` tables ``A_psi`` and ``A_phi`` with
    squared Frobenius norms ``energies`` (:func:`weighted_energy`), and
    ``smallest`` is the least computed singular value of ``S = A_phi^H
    A_psi``: the resolution operator of a pair whose weighted analysis
    tables these are.  Since ``sigma_d(S) <= sigma_1(A_phi) * sigma_d(A_psi)`` and
    ``sigma_1 <= ||.||_F``, ``sigma_d(S)`` above the :func:`rank_cutoff` of
    ``scale = ||A_psi||_F * ||A_phi||_F`` puts ``sigma_d(A_psi)`` above
    ``threshold * max(n, d) * ||A_psi||_F``, past its own cutoff, and
    likewise ``sigma_d(A_phi)``: both tables have rank ``d``.

    Certified is ``smallest - 2 * slack`` above that cutoff, with ``slack =
    4 * (n + d) * eps * scale``.  One slack covers the rounding of ``S``,
    each entry of its node sum off by at most about ``(n + 5) * eps`` times
    the same entry of ``|A_phi|^H |A_psi|``, whose norm is at most ``scale``
    by Cauchy-Schwarz; the SVD's backward error, ``O(d * eps * ||S||)``; and
    the rounding of both norms, which moves the cutoff by at most ``(n + d)
    * eps * scale``.  The other covers the rounding of :func:`block_rank`,
    ``O(eps * sigma_1)`` in each table's singular values, times the other
    table's norm, so every route of
    :func:`~framelab.frames.analysis_rank` counts ``d`` too.  Nothing is
    certified with fewer rows than columns, with a non-finite ``scale`` or
    with an energy at or below ``n * d * tiny / eps``, under which gradual
    underflow in ``S`` or the norms could escape the slack; nor at a
    threshold of at least ``1 / max(n, d)``, whose cutoff is at least
    ``scale >= sigma_1(S)``.
    """
    rows, cols = shape
    floor = _GRAM_FLOOR * rows * cols
    if rows < cols or not all(floor < energy < math.inf for energy in energies):
        return False
    scale = math.sqrt(energies[0]) * math.sqrt(energies[1])
    slack = 4 * (rows + cols) * _EPS * scale
    return bool(smallest - 2 * slack > rank_cutoff(np.array([scale]), shape))
