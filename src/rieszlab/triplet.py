"""Truncated weighted-coefficient model of a nested scale of spaces.

The model fixes a truncation dimension N, a weight vector w with entries
>= 1 and a ladder of J seminorm levels.  Vectors are coefficient arrays
against the canonical orthonormal basis; level j carries the
seminorm ``p_j(f) = ||diag(w)^j f||_2``, level -j the dual norm
``||diag(w)^{-j} .||_2``, the length of a level -j `scale`, and the
duality pairing extends the inner product sesquilinearly.

An optional unitary frame Q (the realization of a dense transform, the
DFT of the Sobolev grid) makes the weights act on the coordinates Q^H f.
Frames are applied, not stored as scaling matrices:
`WeightedTriplet.scale(j, X)` computes Q diag(w^j) Q^H X element-wise, by
FFT or by two thin products, and a map declared as a real `Diagonal`
scales in O(N).  All values are immutable and every operation is pure.

One dtype rule, `held_array`, decides how maps are held: float64 when
their data are real and every scaling applied to them keeps them real,
complex128 otherwise.  A triplet keeps real data real (`keeps_real`) in
the canonical frame, and in the DFT frame when its weights are even
under omega -> -omega, where `scale` takes the half spectrum by `rfft`.
Vectors handed to the norms and the pairing stay complex (`coords_of`).
"""
from __future__ import annotations

from dataclasses import InitVar, dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionError, LevelError, ValidationError

_WEIGHT_SLACK = 1e-9

# Stored in place of a matrix for the inverse unitary DFT frame, Q = F^H
# with F x = fft(x, norm="ortho"); see `WeightedTriplet.fourier`.
_DFT_FRAME = "unitary-dft"


@dataclass(frozen=True, eq=False)
class Diagonal:
    """Real diagonal N x N map diag(d), held as its length-N vector `d`.

    Model builders declare diagonal maps with it.  `.T` and `.conj()` are
    the map itself, and `@` scales the rows of an array on its right or
    the last axis of one on its left in O(N), each entry equal to the BLAS
    product of the dense matrices bit for bit; NumPy's ufuncs refuse it.
    `dense`, or `np.asarray`, forms the read-only N x N matrix, float64
    like `d`: what a scaling makes of it follows `held_array`.
    """

    d: np.ndarray
    __array_ufunc__ = None  # so `array @ Diagonal` calls __rmatmul__

    def __post_init__(self):
        d = np.array(self.d, dtype=float)  # a complex vector is refused
        if d.ndim != 1:
            raise DimensionError("a Diagonal holds a 1-d vector")
        d.flags.writeable = False
        object.__setattr__(self, "d", d)

    shape = property(lambda self: self.d.shape * 2)
    T = property(lambda self: self)  # a diagonal is its own transpose
    conj = T.fget  # and, being real, its own conjugate

    def __matmul__(self, other):
        if np.shape(other)[:1] != self.d.shape:
            raise DimensionError("Diagonal @ x: x has the wrong row count")
        if isinstance(other, Diagonal):
            return Diagonal(self.d * other.d)
        return self.d.reshape((-1,) + (1,) * (np.ndim(other) - 1)) * other

    def __rmatmul__(self, other):
        if np.shape(other)[-1:] != self.d.shape:
            raise DimensionError("x @ Diagonal: x has the wrong last axis")
        return other * self.d

    @cached_property
    def dense(self):
        a = np.diag(self.d)
        a.flags.writeable = False
        return a

    def __array__(self, dtype=None, copy=None):
        return np.array(self.dense, dtype=dtype, copy=copy)


def held_array(x, real=True):
    """The package's one dtype rule: x as a float64 array when its data
    are real and `real` holds, that is every scaling applied to it keeps
    real data real (`WeightedTriplet.keeps_real`); as a complex128 array
    otherwise."""
    x = np.asarray(x)
    return x.astype(float if real and not np.iscomplexobj(x) else complex,
                    copy=False)


def coords_of(x):
    """Complex coordinate array, at least one-dimensional, of an
    array-like."""
    return np.atleast_1d(np.asarray(x, dtype=complex))


def _unitary_defect(q):
    # Full check up to a few hundred dims, randomized probe beyond that so
    # large dense frames (the realization of a dense T) stay cheap to
    # validate.  The DFT frame is unitary by construction and is accepted
    # by name.
    n = q.shape[0]
    if n <= 256:
        return float(np.max(np.abs(q.conj().T @ q - np.eye(n))))
    rng = np.random.default_rng(0)
    x = rng.standard_normal((n, 8)) + 1j * rng.standard_normal((n, 8))
    return float(np.max(np.abs(q.conj().T @ (q @ x) - x)) / np.max(np.abs(x)))


@dataclass(frozen=True)
class WeightedTriplet:
    """Weighted model of a Hilbert space between a smooth space and its dual.

    Parameters
    ----------
    dim : int
        Truncation dimension N.
    weights : array_like
        N positive weights, by default required >= 1 so that every level
        of the smooth side dominates the Hilbert norm pointwise.
    levels : int
        Number of seminorm levels J >= 1 on the smooth side.
    frame : ndarray, optional
        Unitary N x N matrix Q; seminorms act on the rotated coordinates
        Q^H f.  None means the canonical (diagonal) model.  Triplets
        rotated by the unitary DFT come from `WeightedTriplet.fourier`.
    check_weights : bool, init-only
        Skip the >= 1 floor for triplets realized from exact operator
        norms, where the weights are singular values that may dip below 1.
    """

    dim: int
    weights: np.ndarray
    levels: int = 1
    frame: np.ndarray | str | None = None
    check_weights: InitVar[bool] = True

    def __post_init__(self, check_weights):
        if self.dim < 1:
            raise ValidationError("dimension must be at least 1")
        if self.levels < 1:
            raise ValidationError("need at least one seminorm level")
        w = np.asarray(self.weights, dtype=float)
        if w.shape != (self.dim,):
            raise DimensionError(
                f"expected {self.dim} weights, got shape {w.shape}")
        if not np.all(np.isfinite(w)) or np.any(w <= 0):
            raise ValidationError("weights must be finite and positive")
        if check_weights and float(np.min(w)) < 1.0 - _WEIGHT_SLACK:
            raise ValidationError(
                "weights must be >= 1 so the smooth topology dominates the "
                "Hilbert norm; pass check_weights=False only for triplets "
                "realized from exact operator norms")
        frame = self.frame
        if isinstance(frame, str):
            if frame != _DFT_FRAME:
                raise ValidationError(f"unknown frame {frame!r}")
        elif frame is not None:
            frame = np.asarray(frame, dtype=complex)
            if frame.shape != (self.dim, self.dim):
                raise DimensionError("frame must be square of the model dimension")
            defect = _unitary_defect(frame)
            if not defect <= 1e-8:
                raise ValidationError(
                    f"frame is not unitary (defect {defect:.2e})")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "frame", frame)

    @classmethod
    def fourier(cls, weights, levels=1):
        """Triplet rotated by the inverse unitary DFT, applied by FFT: the
        weights act on the coordinates ``fft(f, norm="ortho")``."""
        w = np.asarray(weights, dtype=float)
        return cls(int(w.shape[0]), w, levels, _DFT_FRAME)

    @cached_property
    def keeps_real(self):
        """Whether every scaling maps real columns to real columns: in the
        canonical frame, and in the DFT frame when the weights are even,
        w[k] = w[N - k]; a dense frame is held complex.  Checked once."""
        if isinstance(self.frame, str):
            return bool(np.array_equal(self.weights[1:],
                                       self.weights[:0:-1]))
        return self.frame is None

    # -- coordinate helpers -------------------------------------------------

    def _to_frame(self, x):
        """Q^H x along the first axis."""
        if self.frame is None:
            return x
        if isinstance(self.frame, str):
            return np.fft.fft(x, axis=0, norm="ortho")
        # conj(Q^T conj(x)) avoids materializing the N x N adjoint.
        return (self.frame.T @ x.conj()).conj()

    def _from_frame(self, y):
        """Q y along the first axis."""
        if self.frame is None:
            return y
        if isinstance(self.frame, str):
            return np.fft.ifft(y, axis=0, norm="ortho")
        return self.frame @ y

    def scale(self, j, x):
        """Apply the level-j scaling Q diag(w^j) Q^H to x.

        x is a vector, an N x K array whose columns are scaled, or a
        `Diagonal`, which stays one in the canonical model.  Negative j
        addresses the dual side; j = 0 is the identity.  The result is
        `held_array(x, keeps_real)`'s dtype: real data stay float64 where
        the triplet keeps them real, by `irfft(w^j rfft(x))` in the DFT
        frame.  The scaling is applied, never stored, so thin N x K inputs
        cost O(N K) work and memory (times log N for the DFT frame, times
        N for a dense frame).
        """
        if not -self.levels <= j <= self.levels:
            raise LevelError(
                f"level {j} outside the ladder [-{self.levels}, {self.levels}]")
        if isinstance(x, Diagonal) and self.frame is None and \
                x.shape[0] == self.dim:
            return Diagonal(self.weights ** j * x.d)
        x = held_array(x, self.keeps_real)
        if x.ndim == 0 or x.shape[0] != self.dim:
            raise DimensionError(
                f"array of shape {x.shape} does not fit dimension {self.dim}")
        if j == 0:
            return x.copy()
        d = (self.weights ** j).reshape((self.dim,) + (1,) * (x.ndim - 1))
        if isinstance(self.frame, str) and x.dtype == float:
            # Even weights: the half spectrum of real columns is all of it.
            half = np.fft.rfft(x, axis=0, norm="ortho")
            return np.fft.irfft(d[:half.shape[0]] * half, self.dim, axis=0,
                                norm="ortho")
        return self._from_frame(d * self._to_frame(x))

    def scale_matrix(self, j):
        """Dense N x N matrix Q diag(w^j) Q^H.  No report calls it: it
        stays because the benchmark tracer (`perfbench/tracer.py`) wraps
        it by name for its `triplet.scale_matrix_*` figures."""
        return self.scale(j, np.eye(self.dim))

    # -- norms --------------------------------------------------------------

    def seminorm(self, f, j):
        """Level-j seminorm p_j(f) = ||diag(w)^j f||_2 in frame coordinates.

        A vector f gives a float, an N x K array one seminorm per column.
        Level 0 is the Hilbert norm regardless of the frame.
        """
        if not 0 <= j <= self.levels:
            raise LevelError(f"seminorm level {j} outside [0, {self.levels}]")
        v = coords_of(f)
        if v.shape[0] != self.dim:
            raise DimensionError(
                f"vector of length {v.shape[0]} does not fit dimension {self.dim}")
        # A column is summed as a contiguous row, in the order of a lone
        # vector, so its seminorm does not depend on the other columns.
        y = np.multiply(self._to_frame(v).T, self.weights ** j, order="C")
        norms = np.linalg.norm(y, axis=-1)
        return float(norms) if norms.ndim == 0 else norms


def pairing(phi, f):
    """Duality pairing <phi, f>: linear in phi, conjugate-linear in f; the
    inner product, extended sesquilinearly to (dual, smooth) pairs."""
    p = coords_of(phi)
    v = coords_of(f)
    if p.shape != v.shape:
        raise DimensionError("pairing needs vectors of equal length")
    return complex(np.vdot(v, p))

