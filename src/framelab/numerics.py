"""Dense complex linear algebra with one shared floating-point policy.

Operators on the ambient space (frame operators, resolution operators,
coordinate Gram matrices) are dense ``complex128`` numpy arrays of size at
most ``d x d`` or ``n x d``; node-indexed ``n x n`` kernels are kept by
:mod:`framelab.rkhs` as two ``n x r`` factors instead.  There is no sparse or
iterative machinery.  Every Hermitian Gram ``X^H W X`` (frame operators,
span Grams, the Gram behind a rank certificate) is :func:`block_gram`, a sum
of one real symmetric product per row block of the float view of
``sqrt(w) * X``: :func:`gram` hands it the :func:`weighted_rows` of a table,
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
a table in place a quarter block of rows at a time.  Over a counting
measure, where every weight is 1, the Gram blocks are the table's own rows,
read in place (:func:`weighted_rows`).  A table of one block or no columns
is a single block.  Tables are frozen and shared: a family or kernel keeps
the array :func:`adopt` returns, which is its argument itself when that is
a read-only, C-contiguous ``complex128`` array owning its data.
Every rank decision and SVD cutoff comes from :func:`rank_cutoff`.  Every
rank verdict on a family is :func:`framelab.frames.analysis_rank`: full rank
certified from the frame operator's spectrum (:func:`certifies_full_rank`),
or else the :func:`block_rank` count of the row blocks :func:`block_gram`
takes, folded into a triangular factor, so no rank verdict forms a table or
its SVD.  The frame bounds of a frame operator together with the rule that
refuses to invert it live in :func:`frame_spectrum` and
:func:`require_frame`, and the inverse applied to the rows of a member table
in :meth:`FrameSpectrum.inverse_rows`, so no other module hand-rolls its own
thresholds or dual formula.  The thresholds are constants:
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
# below this Gram trace per table entry, gradual underflow in forming the Gram
# could exceed the rank certificate's rounding slack
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


def _block_rows(cols: int) -> int:
    """Rows per node block: about ``BLOCK_ENTRIES`` entries, or all of a table with no columns."""
    return max(1, BLOCK_ENTRIES // cols) if cols else sys.maxsize


def quarter_rows(cols: int) -> int:
    """Rows per quarter block: about ``BLOCK_ENTRIES / 4`` entries over ``cols`` columns.

    Node sums (:func:`weighted_gram`, :func:`newton_update`) and the tables
    :mod:`framelab.gallery` fills in place (phase blocks, random draws) work
    a quarter block at a time, so a temporary over the rows stays small
    beside the member tables.
    """
    return max(1, _block_rows(cols) // 4)


def _node_sum(term, tables: tuple, step: int):
    """``term(*tables)`` summed over blocks of ``step`` rows of every table.

    The sum starts from the first block's value.  Tables of at most one block
    take ``term(*tables)`` alone, with no slicing.
    """
    rows = len(tables[0])
    if rows <= step:
        return term(*tables)
    total = term(*(t[:step] for t in tables))
    for start in range(step, rows, step):
        total += term(*(t[start : start + step] for t in tables))
    return total


def gram_rows(cols: int) -> int:
    """Rows per block of :func:`block_gram` over ``cols`` columns.

    A block holds at least ``8 * cols`` rows, since a SYRK over fewer rows
    loses speed against the one product, and about ``BLOCK_ENTRIES`` entries
    beyond that.
    """
    return max(8 * cols, _block_rows(cols))


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


def _gram_part(blocks) -> np.ndarray | None:
    """The Gram of the next of ``blocks``, or ``None`` past the last.

    The block is taken here, so nothing else holds it, and released before
    its Gram is assembled from the product.
    """
    real = next(blocks, None)
    if real is None:
        return None
    real = real.view(np.float64)
    product = real.T @ real
    del real
    dim = product.shape[0] // 2
    parts = product.reshape(dim, 2, dim, 2)
    out = np.empty((dim, dim), dtype=np.complex128)
    halves = out.view(np.float64).reshape(dim, dim, 2)
    np.add(parts[:, 0, :, 0], parts[:, 1, :, 1], out=halves[..., 0])
    np.subtract(parts[:, 0, :, 1], parts[:, 1, :, 0], out=halves[..., 1])
    return out


def block_gram(blocks) -> np.ndarray:
    """``B^H B`` for the rows ``B`` of ``blocks`` together, one real symmetric product per block.

    ``blocks`` yields C-contiguous ``complex128`` row blocks of one column
    count, at least one.  The ``(m, 2d)`` float64 view ``R`` of a block holds
    the real and imaginary part of each column side by side, so ``P = R^T R``
    carries ``Re G = P[re, re] + P[im, im]`` and ``Im G = P[re, im] -
    P[im, re]``.  numpy runs ``R^T R`` as one SYRK, about half the work of the
    complex product, and mirrors its triangle, so ``G`` is exactly Hermitian.
    ``G`` is the first block's part plus each later one's, and each block is
    released before its part is assembled from ``P``, so a generator that
    makes its blocks holds one block at a time.
    """
    blocks = iter(blocks)
    total = _gram_part(blocks)
    while (part := _gram_part(blocks)) is not None:
        total += part
        del part
    return total


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


def _conj_weighted_product(left, weights, right) -> np.ndarray:
    """``conj(left^H W right)`` as ``left^T conj(W right)``, conjugating ``W right`` in place."""
    weighted = weights[:, None] * right
    np.conj(weighted, out=weighted)
    return left.T @ weighted


def weighted_gram(left: np.ndarray, weights: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Mixed product ``left^H W right``, summed over row blocks of the nodes.

    The only temporary over the nodes is one block of ``W right``, of
    :func:`quarter_rows` rows; a ``right`` of at most that many rows is one
    block, which :func:`_node_sum` takes with no slicing, since small
    products such as the group means of :func:`~framelab.frames.split` come
    by the hundred.  A table's product with itself is :func:`gram`.
    """
    step = quarter_rows(right.shape[1])
    product = _node_sum(_conj_weighted_product, (left, weights, right), step)
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
    error.
    """
    m = as_matrix(a)
    if m.shape[0] != m.shape[1]:
        raise NonSquareError(f"expected a square matrix, got shape {m.shape}")
    scale = float(np.max(np.abs(m))) if m.size else 0.0
    asymmetry = float(np.max(np.abs(m - m.conj().T))) if m.size else 0.0
    if asymmetry > HERMITIAN_RTOL * scale:
        raise NotHermitianError(
            f"asymmetry {asymmetry:.3e} exceeds {HERMITIAN_RTOL:.0e} * scale {scale:.3e}"
        )
    sym = m / 2.0  # halved before the sum, which overflows near the float limit
    sym += sym.conj().T
    if vectors:
        return np.linalg.eigh(sym)
    return np.linalg.eigvalsh(sym), None


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
    cols)`` square) and ``values`` its ascending eigenvalues, taken with
    ``eigvalsh`` when not given.  Forming ``gram`` and taking its eigenvalues
    is backward stable, so by Weyl's inequality
    ``|values[i] - sigma_i**2| <= slack`` with
    ``slack = 4 * (rows + cols) * eps * trace(gram)`` and
    ``trace(gram) = ||table||_F**2``.  Full rank is certified when
    ``values[0] - slack`` exceeds the squared :func:`rank_cutoff` of the
    upper bound ``sqrt(values[-1] + slack)`` on ``sigma_max``: every singular
    value then clears the cutoff.  The trace must be finite and above
    ``rows * cols * tiny / eps``, and every entry of ``gram`` finite, so that
    neither overflow nor gradual underflow escapes the slack; otherwise
    nothing is certified.  An uncertified rank is counted by
    :func:`block_rank`, which takes no Gram and no eigenvalues.

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
    That count holds for any summation order :func:`block_gram` takes: over ``B``
    row blocks of at most ``m`` rows it forms both parts per block and adds
    the blocks' parts, and ``(m - 1) + 1 + (B - 1) <= n``.  By
    Cauchy-Schwarz, both ``|a_j a_k| + |b_j b_k|`` and
    ``|a_j b_k| + |b_j a_k|`` are at most ``|A_j| |A_k|``.  So to first order
    the real and the imaginary part of each entry of ``S`` are off by at most
    ``(n + 5) * u`` times the same entry of ``|A|^H |A|``, and the entry by
    ``(n + 5) * eps / sqrt(2)`` times it.  That error matrix has norm at most
    ``(n + 5) * eps * trace(S) / sqrt(2)``, since
    ``|| |A|^H |A| || <= ||A||_F**2``.  That leaves at least
    ``3 * n * eps * trace(S)`` of the slack ``4 * (n + d) * eps * trace(S)``
    to the symmetrization and the eigensolver's own backward error.
    """
    rows, cols = shape
    with np.errstate(all="ignore"):
        trace = float(np.trace(gram).real)
    if not (_GRAM_FLOOR * rows * cols < trace < math.inf and np.all(np.isfinite(gram))):
        return False
    if values is None:
        values = np.linalg.eigvalsh(gram)
    slack = 4 * (rows + cols) * _EPS * trace
    bound = rank_cutoff(np.sqrt([values[-1] + slack]), shape)
    return bool(values[0] - slack > bound * bound)
