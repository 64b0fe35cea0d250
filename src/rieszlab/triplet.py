"""Truncated weighted-coefficient model of a nested scale of spaces.

The model fixes a truncation dimension N, a weight vector w with entries
>= 1 and a ladder of J seminorm levels.  Vectors are complex coefficient
arrays against the canonical orthonormal basis; level j carries the
seminorm ``p_j(f) = ||diag(w)^j f||_2``, level -j the dual norm
``||diag(w)^{-j} .||_2``, and the duality pairing extends the inner
product sesquilinearly.

An optional unitary frame Q (graph norms, realizations of a dense
transform, the DFT of the Sobolev grid) makes the weights act on the
coordinates Q^H f.  Frames are applied, not stored as scaling matrices:
`WeightedTriplet.scale(j, X)` computes Q diag(w^j) Q^H X element-wise, by
FFT or by two thin products, and a map declared as a real `Diagonal`
scales in O(N).  All values are immutable and every operation is pure.
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


@dataclass(frozen=True)
class CoefVector:
    """Coefficient vector against the canonical orthonormal basis.

    At finite truncation every vector lies in all three spaces, so the
    vector carries no space of its own: the norm or pairing applied to it
    says which side it is read on.
    """

    coords: np.ndarray

    def __post_init__(self):
        coords = np.atleast_1d(np.asarray(self.coords, dtype=complex))
        if coords.ndim != 1:
            raise DimensionError("coefficient vectors are one-dimensional")
        object.__setattr__(self, "coords", coords)

    def __len__(self):
        return int(self.coords.shape[0])


@dataclass(frozen=True, eq=False)
class Diagonal:
    """Real diagonal N x N map diag(d), held as its length-N vector `d`.

    Model builders declare diagonal maps with it.  `.T` and `.conj()` are
    the map itself, and `@` scales the rows of an array on its right or
    the last axis of one on its left in O(N), each entry equal to the BLAS
    product of the dense matrices bit for bit; NumPy's ufuncs refuse it.
    `dense`, or `np.asarray`, forms the read-only complex N x N matrix.
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
        a = np.diag(self.d.astype(complex))
        a.flags.writeable = False
        return a

    def __array__(self, dtype=None, copy=None):
        return np.array(self.dense, dtype=dtype, copy=copy)


def coords_of(x):
    """Complex coordinate array of a CoefVector or any array-like."""
    if isinstance(x, CoefVector):
        return x.coords
    return np.atleast_1d(np.asarray(x, dtype=complex))


def _unitary_defect(q):
    # Full check up to a few hundred dims, randomized probe beyond that
    # so large FFT frames stay cheap to validate.
    n = q.shape[0]
    if n <= 256:
        return float(np.max(np.abs(q.conj().T @ q - np.eye(n))))
    rng = np.random.default_rng(0)
    x = rng.standard_normal((n, 8)) + 1j * rng.standard_normal((n, 8))
    return float(np.max(np.abs(q.conj().T @ (q @ x) - x)) / np.max(np.abs(x)))


def _fft_defect(n):
    # The FFT pair is unitary by construction; the probe pins the
    # normalization: Q^H Q x = x and ||Q x|| = ||x|| on random columns.
    rng = np.random.default_rng(0)
    x = rng.standard_normal((n, 8)) + 1j * rng.standard_normal((n, 8))
    qx = np.fft.ifft(x, axis=0, norm="ortho")
    back = np.fft.fft(qx, axis=0, norm="ortho")
    norms = np.linalg.norm(x, axis=0)
    return max(float(np.max(np.abs(back - x)) / np.max(np.abs(x))),
               float(np.max(np.abs(np.linalg.norm(qx, axis=0) - norms)
                            / norms)))


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
            defect = _fft_defect(self.dim)
        elif frame is not None:
            frame = np.asarray(frame, dtype=complex)
            if frame.shape != (self.dim, self.dim):
                raise DimensionError("frame must be square of the model dimension")
            defect = _unitary_defect(frame)
        if frame is not None and not defect <= 1e-8:
            raise ValidationError(f"frame is not unitary (defect {defect:.2e})")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "frame", frame)

    @classmethod
    def fourier(cls, weights, levels=1):
        """Triplet rotated by the inverse unitary DFT, applied by FFT: the
        weights act on the coordinates ``fft(f, norm="ortho")``."""
        w = np.asarray(weights, dtype=float)
        return cls(int(w.shape[0]), w, levels, _DFT_FRAME)

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

    def _rotated(self, x):
        v = coords_of(x)
        if v.shape[0] != self.dim:
            raise DimensionError(
                f"vector of length {v.shape[0]} does not fit dimension {self.dim}")
        return self._to_frame(v)

    def scale(self, j, x):
        """Apply the level-j scaling Q diag(w^j) Q^H to x.

        x is a vector, an N x K array whose columns are scaled, or a
        `Diagonal`, which stays one in the canonical model.  Negative j
        addresses the dual side; j = 0 is the identity.  The scaling is
        applied, never stored, so thin N x K inputs cost O(N K) work and
        memory (times log N for the DFT frame, times N for a dense frame).
        """
        if not -self.levels <= j <= self.levels:
            raise LevelError(
                f"level {j} outside the ladder [-{self.levels}, {self.levels}]")
        if isinstance(x, Diagonal) and self.frame is None and \
                x.shape[0] == self.dim:
            return Diagonal(self.weights ** j * x.d)
        x = np.asarray(x, dtype=complex)
        if x.ndim == 0 or x.shape[0] != self.dim:
            raise DimensionError(
                f"array of shape {x.shape} does not fit dimension {self.dim}")
        if j == 0:
            return x.copy()
        d = (self.weights ** j).reshape((self.dim,) + (1,) * (x.ndim - 1))
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
        # A column is summed as a contiguous row, in the order of a lone
        # vector, so its seminorm does not depend on the other columns.
        y = np.multiply(self._rotated(f).T, self.weights ** j, order="C")
        norms = np.linalg.norm(y, axis=-1)
        return float(norms) if norms.ndim == 0 else norms

    def dual_norm(self, phi, j):
        """Dual-side norm ||diag(w)^{-j} phi||_2 for levels 1..J.

        Equals the supremum of |pairing(phi, f)| over the level-j unit
        ball, which is how the tests pin it down.
        """
        if not 1 <= j <= self.levels:
            raise LevelError(f"dual norm level {j} outside [1, {self.levels}]")
        v = self._rotated(phi)
        return float(np.linalg.norm(self.weights ** (-j) * v))


def pairing(phi, f):
    """Duality pairing <phi, f>: linear in phi, conjugate-linear in f; the
    inner product, extended sesquilinearly to (dual, smooth) pairs."""
    p = coords_of(phi)
    v = coords_of(f)
    if p.shape != v.shape:
        raise DimensionError("pairing needs vectors of equal length")
    return complex(np.vdot(v, p))


def graph_norm_triplet(op):
    """Hilbert triplet whose level-1 norm is the graph norm of a square map.

    The level-1 seminorm equals ``||(I + A^H A)^{1/2} f||``, so
    ``p_1(f)^2 = ||f||^2 + ||A f||^2``.  The weights are the square roots
    of the eigenvalues of I + A^H A (always >= 1) and the eigenvector
    frame is stored with the triplet.  A = 0 collapses the triplet to the
    plain Hilbert space.
    """
    a = np.asarray(getattr(op, "matrix", op), dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError("graph norms need a square map")
    n = a.shape[0]
    gram = np.eye(n) + a.conj().T @ a
    lam, q = np.linalg.eigh(gram)
    # Hermitian psd plus identity: eigenvalues >= 1 up to roundoff.
    lam = np.clip(lam, 1.0, None)
    return WeightedTriplet(n, np.sqrt(lam), 1, q)
