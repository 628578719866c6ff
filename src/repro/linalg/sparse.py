"""Sparse matrices in coordinate (COO) and compressed-sparse-row (CSR) form.

:class:`CooMatrix` is the mutable builder — append entries, duplicates sum.
:class:`CsrMatrix` is the immutable compute format: matrix-vector products,
transpose products, row slicing (needed by Gauss–Seidel/SOR), transposition
and scaling. Storage uses numpy arrays; all algorithms are implemented here.

Because a :class:`CsrMatrix` never changes after construction, per-matrix
derived arrays are computed once and cached — see :meth:`CsrMatrix.row_index`
— and :meth:`CsrMatrix.matvec` segment-sums with ``np.add.reduceat`` instead
of re-expanding row indices on every call. This is the CSR fast path the
Gauss–Seidel/power/Jacobi PageRank solvers sit on: their per-iteration cost
is dominated by exactly these products (see docs/PERFORMANCE.md).
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Tuple

import numpy as np

from repro.errors import LinalgError


class CooMatrix:
    """A growable sparse matrix in coordinate format.

    Entries are appended with :meth:`add`; duplicate ``(row, col)`` entries
    are summed when converting to CSR, which makes graph construction
    (parallel edges) straightforward.
    """

    def __init__(self, nrows: int, ncols: int):
        if nrows < 0 or ncols < 0:
            raise LinalgError(f"matrix dimensions must be non-negative, got {nrows}x{ncols}")
        self.nrows = nrows
        self.ncols = ncols
        self._rows: list[int] = []
        self._cols: list[int] = []
        self._data: list[float] = []

    @property
    def shape(self) -> Tuple[int, int]:
        return (self.nrows, self.ncols)

    @property
    def nnz(self) -> int:
        """Number of stored entries (duplicates counted separately)."""
        return len(self._data)

    def add(self, row: int, col: int, value: float) -> None:
        """Append ``value`` at ``(row, col)``; duplicates accumulate."""
        if not (0 <= row < self.nrows and 0 <= col < self.ncols):
            raise LinalgError(
                f"entry ({row}, {col}) outside matrix of shape {self.nrows}x{self.ncols}"
            )
        self._rows.append(row)
        self._cols.append(col)
        self._data.append(float(value))

    def extend(self, entries: Iterable[Tuple[int, int, float]]) -> None:
        """Append many ``(row, col, value)`` triples."""
        for row, col, value in entries:
            self.add(row, col, value)

    def to_csr(self) -> "CsrMatrix":
        """Convert to CSR, summing duplicate coordinates."""
        rows = np.asarray(self._rows, dtype=np.int64)
        cols = np.asarray(self._cols, dtype=np.int64)
        data = np.asarray(self._data, dtype=float)
        return CsrMatrix.from_coo_arrays(self.nrows, self.ncols, rows, cols, data)


class CsrMatrix:
    """An immutable compressed-sparse-row matrix.

    Attributes
    ----------
    indptr, indices, data:
        The standard CSR arrays: row ``i`` occupies
        ``indices[indptr[i]:indptr[i+1]]`` / ``data[indptr[i]:indptr[i+1]]``,
        with column indices sorted ascending inside each row.
    """

    def __init__(self, nrows: int, ncols: int, indptr, indices, data):
        self.nrows = int(nrows)
        self.ncols = int(ncols)
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.indices = np.asarray(indices, dtype=np.int64)
        self.data = np.asarray(data, dtype=float)
        self._row_of: Optional[np.ndarray] = None  # lazy expanded row index
        if self.indptr.shape != (self.nrows + 1,):
            raise LinalgError(
                f"indptr must have length nrows+1={self.nrows + 1}, got {self.indptr.shape}"
            )
        if self.indices.shape != self.data.shape:
            raise LinalgError("indices and data must have identical length")
        if self.nrows and self.indptr[0] != 0:
            raise LinalgError("indptr must start at 0")
        if len(self.indices) and (self.indices.min() < 0 or self.indices.max() >= self.ncols):
            raise LinalgError("column index out of range")

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def from_coo_arrays(cls, nrows, ncols, rows, cols, data) -> "CsrMatrix":
        """Build CSR from parallel coordinate arrays, summing duplicates."""
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        data = np.asarray(data, dtype=float)
        if rows.size:
            if rows.min() < 0 or rows.max() >= nrows:
                raise LinalgError("row index out of range")
            if cols.min() < 0 or cols.max() >= ncols:
                raise LinalgError("column index out of range")
        # Sort by (row, col), stably, so duplicates are adjacent in their
        # input order. One key row * ncols + col orders as the pair does,
        # and the stable sort merges already sorted runs in linear time.
        order = np.argsort(rows * ncols + cols, kind="stable")
        rows, cols, data = rows[order], cols[order], data[order]
        if rows.size:
            # Collapse runs of identical (row, col) by summing their data.
            boundary = np.ones(rows.size, dtype=bool)
            boundary[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
            group = np.cumsum(boundary) - 1
            summed = np.bincount(group, weights=data)
            rows, cols = rows[boundary], cols[boundary]
            data = summed
        counts = np.bincount(rows, minlength=nrows) if rows.size else np.zeros(nrows, dtype=np.int64)
        indptr = np.zeros(nrows + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return cls(nrows, ncols, indptr, cols, data)

    @classmethod
    def from_dense(cls, dense) -> "CsrMatrix":
        """Build CSR from a 2-D array-like, dropping exact zeros."""
        arr = np.asarray(dense, dtype=float)
        if arr.ndim != 2:
            raise LinalgError(f"expected a 2-D array, got shape {arr.shape}")
        rows, cols = np.nonzero(arr)
        return cls.from_coo_arrays(arr.shape[0], arr.shape[1], rows, cols, arr[rows, cols])

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------

    @property
    def shape(self) -> Tuple[int, int]:
        return (self.nrows, self.ncols)

    @property
    def nnz(self) -> int:
        return int(self.data.size)

    def row(self, i: int) -> Tuple[np.ndarray, np.ndarray]:
        """Return ``(column_indices, values)`` views of row ``i``."""
        if not 0 <= i < self.nrows:
            raise LinalgError(f"row {i} out of range for {self.nrows} rows")
        start, stop = self.indptr[i], self.indptr[i + 1]
        return self.indices[start:stop], self.data[start:stop]

    def column(self, j: int) -> Tuple[np.ndarray, np.ndarray]:
        """Return ``(row_indices, values)`` of column ``j``.

        O(nnz) per call — a one-off extraction for callers that need a
        single column without paying for a full :meth:`transpose` (score
        provenance cross-checks, tests). Repeated column access should
        transpose once instead.
        """
        if not 0 <= j < self.ncols:
            raise LinalgError(f"column {j} out of range for {self.ncols} columns")
        mask = self.indices == j
        return self.row_index()[mask], self.data[mask]

    def row_index(self) -> np.ndarray:
        """The expanded row index of every stored entry (cached).

        ``row_index()[k]`` is the row of ``data[k]``. Materializing this
        O(nnz) array once per matrix — instead of rebuilding it inside
        every product as the original implementation did — is the heart
        of the CSR fast path: iterative PageRank solvers call
        :meth:`matvec`/:meth:`rmatvec` hundreds of times on the same
        immutable matrix.
        """
        if self._row_of is None:
            self._row_of = np.repeat(np.arange(self.nrows), np.diff(self.indptr))
        return self._row_of

    def diagonal(self) -> np.ndarray:
        """Return the main diagonal as a dense vector."""
        diag = np.zeros(min(self.nrows, self.ncols))
        row_of = self.row_index()
        on_diag = self.indices == row_of
        if on_diag.any():
            hits = row_of[on_diag]
            keep = hits < diag.size
            diag[hits[keep]] = self.data[on_diag][keep]
        return diag

    def row_sums(self) -> np.ndarray:
        """Return the per-row sum of stored values."""
        sums = np.zeros(self.nrows)
        np.add.at(sums, self.row_index(), self.data)
        return sums

    def to_dense(self) -> np.ndarray:
        """Materialize as a dense 2-D array (test/debug helper)."""
        dense = np.zeros(self.shape)
        dense[self.row_index(), self.indices] = self.data
        return dense

    def entries(self) -> Iterator[Tuple[int, int, float]]:
        """Yield stored ``(row, col, value)`` triples in row-major order."""
        for i in range(self.nrows):
            cols, vals = self.row(i)
            for col, val in zip(cols, vals):
                yield i, int(col), float(val)

    # ------------------------------------------------------------------
    # Algebra
    # ------------------------------------------------------------------

    def matvec(self, x) -> np.ndarray:
        """Return ``A @ x``.

        Segment-sums the per-entry products with ``np.add.reduceat`` over
        the (cached) non-empty row starts — about 2× faster than the
        previous bincount-over-``np.repeat`` formulation on PageRank-sized
        matrices, and allocation-free apart from the result.
        """
        x = np.asarray(x, dtype=float)
        if x.shape != (self.ncols,):
            raise LinalgError(f"matvec expects length {self.ncols}, got {x.shape}")
        out = np.zeros(self.nrows)
        if self.data.size:
            products = self.data * x[self.indices]
            starts = self.indptr[:-1]
            nonempty = self.indptr[1:] > starts
            # reduceat segments run from each listed start to the next;
            # restricting to non-empty rows makes each segment exactly one
            # row (empty rows contribute no entries in between).
            out[nonempty] = np.add.reduceat(products, starts[nonempty])
        return out

    def rmatvec(self, x) -> np.ndarray:
        """Return ``A.T @ x`` without forming the transpose."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.nrows,):
            raise LinalgError(f"rmatvec expects length {self.nrows}, got {x.shape}")
        products = self.data * x[self.row_index()]
        return np.bincount(self.indices, weights=products, minlength=self.ncols).astype(float)

    def transpose(self) -> "CsrMatrix":
        """Return a new CSR matrix equal to ``A.T``."""
        return CsrMatrix.from_coo_arrays(
            self.ncols, self.nrows, self.indices, self.row_index(), self.data
        )

    def scale(self, factor: float) -> "CsrMatrix":
        """Return ``factor * A`` as a new matrix."""
        return CsrMatrix(self.nrows, self.ncols, self.indptr, self.indices, self.data * factor)

    def scale_rows(self, factors) -> "CsrMatrix":
        """Return ``diag(factors) @ A`` as a new matrix."""
        factors = np.asarray(factors, dtype=float)
        if factors.shape != (self.nrows,):
            raise LinalgError(f"need one factor per row ({self.nrows}), got {factors.shape}")
        return CsrMatrix(
            self.nrows, self.ncols, self.indptr, self.indices,
            self.data * factors[self.row_index()],
        )

    def add(self, other: "CsrMatrix") -> "CsrMatrix":
        """Return ``A + B`` for two matrices of identical shape."""
        if self.shape != other.shape:
            raise LinalgError(f"shape mismatch: {self.shape} vs {other.shape}")
        rows = np.concatenate([self.row_index(), other.row_index()])
        cols = np.concatenate([self.indices, other.indices])
        data = np.concatenate([self.data, other.data])
        return CsrMatrix.from_coo_arrays(self.nrows, self.ncols, rows, cols, data)

    def __matmul__(self, x) -> np.ndarray:
        return self.matvec(x)

    def __repr__(self) -> str:
        return f"CsrMatrix(shape={self.shape}, nnz={self.nnz})"


def identity_csr(n: int) -> CsrMatrix:
    """Return the ``n`` × ``n`` identity matrix in CSR form."""
    idx = np.arange(n, dtype=np.int64)
    return CsrMatrix(n, n, np.arange(n + 1, dtype=np.int64), idx, np.ones(n))
