"""Non-self-adjoint Hamiltonians intertwined with self-adjoint partners.

Given a real spectrum, a unitary eigenvector matrix psi and an injective
transform T, the pair is H_sa = sum_k lambda_k psi_k psi_k^H and
H = T^{-1} H_sa T.  H keeps the real spectrum with (generally
non-orthogonal) eigenvectors xi_k = T^{-1} psi_k, and the two operators
satisfy a weak similarity identity through T that holds pair by pair:
<H xi, T^H eta> = <T xi, H_sa eta>.  The diagnostics below measure how
far a (possibly perturbed) pair is from these identities, plus the one
finite-dimensional shadow of the density question: the growth of
||T^H eta_N|| along a dimension ladder.  The real spectrum is certified
through T H T^{-1}, which is H_sa for an exact pair, by Hermitian
eigensolves only.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionError, InjectivityError, ValidationError
from .sequences import _as_map, _lanczos_top, max_deviation, pseudo_inverse
from .trends import checked_ladder, fit_trend
from .triplet import Diagonal, coords_of

#: Largest entry of |Psi^H Psi - I| accepted for an eigenvector matrix.
UNITARY_TOL = 1e-10

#: Lanczos stopping tolerance of `nonnormality`.
EQUALITY_TOL = 1e-12

#: Seed of the unitary eigenvector matrix of `demo_pair`.
DEFAULT_PSI_SEED = 7


@dataclass(frozen=True)
class HamiltonianPair:
    """An intertwined pair with its spectral data.

    hamiltonian : H = T^{-1} H_sa T
    selfadjoint : H_sa, Hermitian with spectrum `eigenvalues`
    transform : the intertwining map T, held as declared, an array or a
        Diagonal; `np.asarray` gives the dense view
    eigenvalues : real spectrum shared by both operators
    eigenvectors_sa : unitary columns psi_k of H_sa
    eigenvectors : columns xi_k = T^{-1} psi_k of H
    degenerate : repeated eigenvalues were supplied (accepted, flagged)

    Memoised: `certificate`, which both spectral readers share; a copy
    made by `dataclasses.replace` keeps the held T and starts without it.
    """

    hamiltonian: np.ndarray
    selfadjoint: np.ndarray
    transform: np.ndarray | Diagonal
    eigenvalues: np.ndarray
    eigenvectors_sa: np.ndarray
    eigenvectors: np.ndarray
    degenerate: bool = False

    @property
    def dim(self):
        return int(self.hamiltonian.shape[0])

    @cached_property
    def certificate(self):
        """(max_k |eigvalsh(M)_k - sort(lambda)_k|, ||K||_F) for the
        Hermitian and skew parts M, K of S = T H T^{-1}."""
        tinv, _ = pseudo_inverse(self.transform)
        s = self.transform @ self.hamiltonian @ tinv
        sh = s.conj().T
        gap = np.abs(np.linalg.eigvalsh((s + sh) / 2.0)
                     - np.sort(self.eigenvalues))
        return float(np.max(gap)), float(np.linalg.norm((s - sh) / 2.0))


def random_unitary(dim, seed):
    """Deterministic Haar-style unitary: QR of a complex Gaussian matrix
    with the phases of the R diagonal fixed."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(a)
    d = np.diag(r)
    return q * (np.conj(d) / np.abs(d))


def build_selfadjoint(eigenvalues, eigenvectors):
    """H_sa = sum_k lambda_k psi_k psi_k^H from real eigenvalues and a
    unitary eigenvector matrix; the result is symmetrized so Hermiticity
    is exact."""
    lam = np.asarray(eigenvalues)
    if np.iscomplexobj(lam):
        if np.max(np.abs(lam.imag)) > 0.0:
            raise ValidationError("eigenvalues must be real")
        lam = lam.real
    lam = lam.astype(float)
    psi = np.asarray(eigenvectors, dtype=complex)
    if psi.ndim != 2 or psi.shape[0] != psi.shape[1]:
        raise DimensionError("eigenvector matrix must be square")
    if lam.shape != (psi.shape[0],):
        raise DimensionError("need one eigenvalue per eigenvector")
    defect = max_deviation(psi.conj().T @ psi)
    if not defect <= UNITARY_TOL:
        raise ValidationError(
            f"eigenvector matrix is not unitary (defect {defect:.2e})")
    h = (psi * lam) @ psi.conj().T
    return (h + h.conj().T) / 2.0


def build_pair(eigenvalues, eigenvectors, transform):
    """Assemble the intertwined pair H = T^{-1} H_sa T.

    The transform must be injective at this truncation; repeated
    eigenvalues are accepted and flagged as degenerate.
    """
    hsa = build_selfadjoint(eigenvalues, eigenvectors)
    t = _as_map(transform)
    if t.shape != hsa.shape:
        raise DimensionError("transform does not match the operator size")
    tinv, rank = pseudo_inverse(t)
    if rank < t.shape[1]:
        raise InjectivityError(
            f"transform is singular (rank {rank} of {t.shape[1]})")
    lam = np.real(eigenvalues).astype(float).ravel()
    psi = np.asarray(eigenvectors, dtype=complex)
    degenerate = bool(np.any(np.diff(np.sort(lam)) < 1e-12))
    return HamiltonianPair(tinv @ hsa @ t, hsa, t, lam, psi, tinv @ psi,
                           degenerate)


def weak_similarity_residual(pair, xi, eta):
    """|<H xi, T^H eta> - <T xi, H_sa eta>| for one vector pair, or one
    per column pair of two N x K arrays.

    Zero in exact arithmetic for any correctly intertwined pair; the
    residual measures perturbations of H away from T^{-1} H_sa T.
    """
    # On rows x^T A^T = (A x)^T, each <a, b> = sum conj(b) a runs along a
    # contiguous row and is summed in the order of a lone vector.
    x, e = coords_of(xi).T, coords_of(eta).T
    if x.shape != e.shape or x.shape[-1] != pair.dim:
        raise DimensionError("vector pairs do not match the pair dimension")
    t = pair.transform
    lhs = np.sum((e @ t.conj()).conj() * (x @ pair.hamiltonian.T), axis=-1)
    rhs = np.sum((e @ pair.selfadjoint.T).conj() * (x @ t.T), axis=-1)
    res = np.abs(lhs - rhs)
    return float(res) if res.ndim == 0 else res


def eigen_residual(pair):
    """Worst relative defect max_k ||H xi_k - lambda_k xi_k|| / ||xi_k||."""
    r = pair.hamiltonian @ pair.eigenvectors \
        - pair.eigenvectors * pair.eigenvalues
    return float(np.max(np.linalg.norm(r, axis=0)
                        / np.linalg.norm(pair.eigenvectors, axis=0)))


def hermitian_defect(pair):
    """||K||_F for the skew part K = (S - S^H) / 2 of S = T H T^{-1}; zero
    exactly when T H T^{-1} is Hermitian."""
    return pair.certificate[1]


def spectrum_residual(pair):
    """Bound on the distance from eig(H) to the declared real spectrum.

    With S = T H T^{-1} = M + K split into its Hermitian part M and skew
    part K, the value is r = max_k |eigvalsh(M)_k - sort(lambda)_k| +
    ||K||_F.  The first term places each eigenvalue of M next to a declared
    one, and Bauer-Fike for the Hermitian M, with ||K||_2 <= ||K||_F,
    places each eigenvalue of S, which are those of H, within ||K||_2 of
    one of M: every eigenvalue of H lies within r of a declared eigenvalue.
    When the declared eigenvalues are more than 2r apart, the discs of
    radius r around them are disjoint and, by continuity along M + tK,
    each holds exactly one eigenvalue of H; then r also bounds the
    matching distance of eig(H), sorted by real part, to the sorted
    declared spectrum.
    """
    gap, defect = pair.certificate
    return gap + defect


def nonnormality(matrix, tol=EQUALITY_TOL, seed=0):
    """Spectral norm of the commutator C = [A, A^H]; zero iff A is normal.

    C is Hermitian, so ||C||_2^2 is the top eigenvalue of C^2, which the
    seeded Lanczos kernel of the Bessel check takes, to `tol`, from
    products C v = A (A^H v) - A^H (A v) alone: no N x N product or
    eigensolve."""
    a = np.asarray(matrix, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError("non-normality needs a square matrix")
    a_h = a.conj().T

    def commute(v):
        return a @ (a_h @ v) - a_h @ (a @ v)

    # An absolute stop: a matrix normal up to roundoff stops within a few
    # steps on a value near 0 instead of taking N of them.
    ritz = _lanczos_top(lambda v: commute(commute(v)), a.shape[0], tol,
                        seed, "the commutator products", absolute=True)[0]
    return float(np.sqrt(max(ritz, 0.0)))


@dataclass(frozen=True)
class DensityTrend:
    """Ladder record of the admissibility diagnostic.

    At truncation the admissible set {eta : T^H eta in H} is everything,
    because T is invertible, so the informative entry is the growth trend
    of ||T^H eta_N|| for the per-dimension probe vector.
    """

    ladder: tuple
    norms: tuple
    slope: float | None
    flag: str


def density_diagnostic(transform_rule, ladder):
    """Trend of ||T^H e_N|| over a ladder of dimensions N, one map T from
    `transform_rule(N)` each.  The last canonical vector e_N exposes the
    largest singular directions of diagonal-style transforms.  A clearly
    growing trend is flagged "growing" (the probe directions leave every
    bounded admissibility ball), a bounded one "benign".
    """
    ladder = checked_ladder(ladder)
    norms = []
    for n in ladder:
        t = _as_map(transform_rule(n))
        eta = np.zeros(t.shape[0], dtype=complex)
        eta[-1] = 1.0
        norms.append(float(np.linalg.norm(t.conj().T @ eta)))
    slope, cls = fit_trend(ladder, norms)
    flag = {"growing": "growing", "bounded": "benign"}.get(cls, "inconclusive")
    return DensityTrend(ladder, tuple(norms), slope, flag)


def demo_transform(dim):
    """The reference intertwining map T = diag(1..N)."""
    return Diagonal(np.arange(1, int(dim) + 1, dtype=float))


def demo_pair(dim, psi_seed=DEFAULT_PSI_SEED):
    """Reference pair: T = `demo_transform(dim)`, seeded random unitary psi,
    eigenvalues 1..N.  Non-normal for generic psi, spectrum exactly known."""
    return build_pair(np.arange(1, int(dim) + 1, dtype=float),
                      random_unitary(int(dim), psi_seed), demo_transform(dim))
