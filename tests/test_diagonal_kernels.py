"""Diagonal maps against the dense LAPACK and BLAS reference.

The number-operator, Schwartz and pseudo-Hermitian builders declare their
maps as `Diagonal`s, and the kernels take those in O(N).  The reference
here is the same map as a dense `np.diag(d)` array
(`reference.dense_diag`), which takes LAPACK and BLAS, and every value
must equal it with `==`.  On the package's diagonal models (entries
+-k^j, in any order, with signs and exact zeros) and on power-of-two
magnitudes from 2^-498 to 2^498 (about 1e-150 to 1e150), LAPACK returns
the exact sorted |d| and signed permutations, and each entry of a
product with a diagonal has one nonzero term.

Elsewhere LAPACK itself rounds: it rescales a matrix whose largest entry
lies outside its safe range by a factor that need not be a power of two,
and its divide-and-conquer singular vectors (N > 25) are not exact
permutations for general entries.  There the closed form is the exact
answer and LAPACK is within a few ulp of it; `test_generic_diagonals`
bounds that gap.  A real diagonal loaded from a file is such a dense
array, so it takes LAPACK.

The whole reports are run a second and a third time with one structure
made dense: the Diagonal maps as `np.diag` arrays, which must give the
same bytes apart from the reordered sums of the reconstruction ladder,
and the triplet scaling as the dense Q diag(w^j) Q^H of `reference.py`,
which must give the same verdicts and records within 1e-12.
"""
import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import rieszlab.cli as cli
from rieszlab import (SequenceFamily, WeightedTriplet, hamiltonian,
                      make_riesz_basis, spaces)
from rieszlab.errors import DimensionError
from rieszlab.sequences import (_family_map, dual_level_norm, max_deviation,
                                partial_sum, pseudo_inverse, singular_values,
                                weak_expansion_residual)
from rieszlab.triplet import Diagonal

from conftest import count_calls
from reference import TOL, dense_diag, reference_scale

SIZES = [1, 2, 8, 64, 256]


def model_diagonal(n, kind, rng):
    k = np.arange(1.0, n + 1)
    if kind == "k^2-signs":
        return k ** 2 * rng.choice([-1.0, 1.0], n)
    if kind == "1/k-shuffled":
        return rng.permutation(1.0 / k)
    if kind == "k^-2-zeros":
        # every third entry an exact zero: rank-deficient from n = 2 on
        return k ** -2.0 * (np.arange(n) % 3 != 1)
    if kind == "pow2-wide":
        d = 2.0 ** np.round(np.linspace(-498.0, 498.0, n))
        return rng.permutation(d) * rng.choice([-1.0, 1.0], n)
    if kind == "1e150-k":
        return 1e150 * k
    if kind == "1e-150-k":
        return -1e-150 * k
    raise ValueError(kind)


KINDS = ["k^2-signs", "1/k-shuffled", "k^-2-zeros", "pow2-wide", "1e150-k",
         "1e-150-k"]


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n", SIZES)
def test_kernels_equal_lapack(n, kind):
    rng = np.random.default_rng(n)
    d = model_diagonal(n, kind, rng)
    diag, a = Diagonal(d), dense_diag(d)
    s = singular_values(diag)
    assert np.array_equal(s, singular_values(a))
    assert np.array_equal(s, np.sort(np.abs(d))[::-1])
    pinv, rank = pseudo_inverse(diag)
    ref_pinv, ref_rank = pseudo_inverse(a)
    assert isinstance(pinv, Diagonal)
    assert rank == ref_rank and np.array_equal(np.asarray(pinv), ref_pinv)
    if kind == "k^-2-zeros" and n > 1:
        assert rank == n - (n + 1) // 3
    # Products with one nonzero term per entry give the BLAS bits.
    x = rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3))
    assert np.array_equal(np.asarray(diag @ pinv), a @ ref_pinv)
    assert np.array_equal(diag @ x, a @ x)
    assert np.array_equal(x.T @ diag, x.T @ a)
    assert max_deviation(pinv @ diag) == \
        float(np.max(np.abs(ref_pinv @ a - np.eye(n))))
    # A lone vector on either side, as the Lanczos and weak-similarity
    # kernels multiply it.
    v = x[:, 0]
    assert np.array_equal(diag @ v, a @ v)
    assert np.array_equal(v @ diag, v @ a)
    # The map as a family's dual, certified as the factor pair (dual, E)
    # between levels and by its level-j norms.  Power-of-two weights keep
    # the scaled power-of-two entries exact.
    weights = 2.0 ** (np.arange(n) % 3) if kind == "pow2-wide" \
        else np.arange(1.0, n + 1)
    tri = WeightedTriplet(n, weights, 2)
    fams = [SequenceFamily(Diagonal(np.ones(n)), tri, dual=diag),
            SequenceFamily(np.eye(n), tri, dual=a)]
    for pair in [(0, 0), (1, -1), (2, 0), (-1, 1)]:
        closed, dense = (_family_map(fam, "dual", "canonical", pair)
                         .certificate[pair] for fam in fams)
        assert closed == dense
    # -1e-150 k / k is -1e-150 only up to an ulp: those level-1 entries are
    # no model diagonal, and LAPACK, which rescales them out of its safe
    # range, returns 1e-150 where the largest is an ulp above (N >= 64).
    # For the 1e+-150 kinds it is held to `test_generic_diagonals`' bound.
    rtol = 8 * np.finfo(float).eps if "150" in kind else 0.0
    for j in range(3):
        closed, dense = (dual_level_norm(fam, j) for fam in fams)
        np.testing.assert_allclose(closed, dense, rtol=rtol, atol=0)


@pytest.mark.parametrize("n", [8, 64, 256])
def test_generic_diagonals(n):
    rng = np.random.default_rng(7)
    d = rng.standard_normal(n) * 10.0 ** rng.integers(-150, 151, n)
    d[::5] = 0.0
    diag, a = Diagonal(d), dense_diag(d)
    s = singular_values(diag)
    assert np.array_equal(s, np.sort(np.abs(d))[::-1])
    np.testing.assert_allclose(s, singular_values(a),
                               rtol=8 * np.finfo(float).eps, atol=0)
    pinv, rank = pseudo_inverse(diag)
    ref_pinv, ref_rank = pseudo_inverse(a)
    assert rank == ref_rank
    kept = np.abs(d) > 1e-12 * np.max(np.abs(d))
    assert np.array_equal(pinv.d[kept], 1.0 / d[kept])
    np.testing.assert_allclose(np.asarray(pinv), ref_pinv,
                               rtol=8 * np.finfo(float).eps, atol=0)


@pytest.mark.parametrize("case", ["complex-phase", "off-diagonal",
                                  "non-square", "non-finite",
                                  "real-diagonal"])
def test_other_matrices_take_lapack(monkeypatch, case):
    n = 8
    a = dense_diag(np.arange(1.0, n + 1))
    if case == "complex-phase":
        a[3, 3] = 4j
    elif case == "off-diagonal":
        a[0, 5] = 1e-300
    elif case == "non-square":
        a = a[:, :5]
    elif case == "non-finite":
        a[2, 2] = np.inf
    calls = count_calls(monkeypatch, ("svd",), (np.linalg,))
    if case != "non-finite":
        singular_values(a)
    pseudo_inverse(a)
    assert calls["svd"] == (1 if case == "non-finite" else 2)


def test_replace_keeps_the_held_maps(monkeypatch):
    _, basis = spaces.number_operator_model(16, 2)
    fam, pair = basis.fam, hamiltonian.demo_pair(256)
    copy = replace(fam)
    assert copy.family is fam.family and copy.dual is fam.dual
    assert replace(pair).transform is pair.transform
    again = replace(basis)
    assert again.transform is basis.transform and again.fam is fam
    value = hamiltonian.spectrum_residual(pair)
    calls = count_calls(monkeypatch, ("svd",), (np.linalg,))
    assert hamiltonian.spectrum_residual(replace(pair)) == value
    assert calls["svd"] == 0


def test_rebuild_from_a_held_diagonal_map_skips_lapack(monkeypatch):
    tri, basis = spaces.number_operator_model(16)
    calls = count_calls(monkeypatch, ("svd",), (np.linalg,))
    again = make_riesz_basis(basis.transform, tri)
    assert calls["svd"] == 0
    assert isinstance(again.fam.family, Diagonal)
    assert np.array_equal(again.fam.family.d, basis.fam.family.d)
    assert np.array_equal(again.fam.dual.d, basis.fam.dual.d)


def test_products_of_diagonals_stay_diagonal():
    a, b = Diagonal([2.0, -3.0, 0.5]), Diagonal([-1.0, 4.0, 0.0])
    prod = a @ b
    assert isinstance(prod, Diagonal)
    assert np.array_equal(prod.d, [-2.0, -12.0, 0.0])
    assert np.array_equal(np.asarray(prod), np.asarray(a) @ np.asarray(b))
    assert a.conj().T is a and a.T.conj() is a


def test_products_check_the_shapes():
    diag = Diagonal(np.arange(1.0, 4.0))
    for other in (np.ones((2, 3)), np.ones(2), Diagonal(np.ones(1)), 2.0):
        with pytest.raises(DimensionError):
            diag @ other
    for other in (np.ones((3, 2)), np.ones(2)):
        with pytest.raises(DimensionError):
            other @ diag


def test_ufuncs_refuse_a_diagonal():
    # An element-wise ufunc would broadcast the dense N x N matrix, which
    # is not an operation on the map.
    diag = Diagonal(np.arange(1.0, 4.0))
    with pytest.raises(TypeError):
        np.ones(3) * diag
    with pytest.raises(TypeError):
        diag + np.ones(3)
    with pytest.raises(TypeError):
        np.abs(diag)
    assert "dense" not in diag.__dict__


def short_expansions(fam, order, seed=1):
    rng = np.random.default_rng(seed)
    f, psi = rng.standard_normal((2, fam.dim)) \
        + 1j * rng.standard_normal((2, fam.dim))
    return (partial_sum(fam, f, order),
            weak_expansion_residual(fam, psi, f, order))


def test_short_expansions_never_form_the_dense_view():
    fam = spaces.number_operator_model(4096)[1].fam
    tracemalloc.start()
    try:
        short_expansions(fam, 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # The two real N x 8 blocks take 0.5 MiB, an N x N matrix 128 MiB.
    assert peak < 4 * 2 ** 20
    assert "dense" not in fam.family.__dict__
    assert "dense" not in fam.dual.__dict__


@pytest.mark.parametrize("order", [0, 1, 8, 255, 256])
def test_short_expansions_equal_the_dense_family(order):
    fam = spaces.number_operator_model(256)[1].fam
    dense = SequenceFamily(dense_diag(fam.family.d), fam.triplet,
                           dual=dense_diag(fam.dual.d))
    for got, want in zip(short_expansions(fam, order),
                         short_expansions(dense, order)):
        assert np.array_equal(got, want)


def test_real_dtype_and_empty_matrices():
    d = np.array([3.0, -1.0, 0.0])
    diag = Diagonal(d)
    assert np.array_equal(diag.d, d) and diag.shape == (3, 3)
    assert diag.T is diag and np.array_equal(np.asarray(diag), np.diag(d))
    with pytest.raises(ValueError):
        diag.dense[0, 0] = 1.0
    empty = Diagonal(np.zeros(0))
    assert empty.shape == (0, 0) and singular_values(empty).size == 0
    assert singular_values(np.zeros((0, 0), dtype=complex)).size == 0
    for zeros in (np.zeros((0, 0)), empty):
        pinv, rank = pseudo_inverse(zeros)
        assert np.asarray(pinv).shape == (0, 0) and rank == 0
    for zeros in (np.zeros((3, 3)), Diagonal(np.zeros(3))):
        pinv, rank = pseudo_inverse(zeros)
        assert rank == 0 and not np.asarray(pinv).any()
    assert max_deviation(empty) == 0.0


#: The reports whose builders declare Diagonal maps come first; the others
#: run on a DFT, a Hermite or a canonical two-level triplet.
REPORTS = {
    "number-op-N8": "full-report --example number-op --dim 8 --seed 3",
    "number-op-N256-L2":
        "full-report --example number-op --dim 256 --levels 2 --seed 3",
    "schwartz-N16-L3":
        "full-report --example schwartz --dim 16 --levels 3 --seed 3",
    "pseudo-hermitian-N32": "pseudo-hermitian --dim 32 --seed 3",
    "pseudo-hermitian-N256": "pseudo-hermitian --dim 256 --seed 3",
    "number-op-N8-L2":
        "full-report --example number-op --dim 8 --levels 2 --seed 4",
    "schwartz-N8": "full-report --example schwartz --dim 8 --seed 4",
    "hermite-N6": "full-report --example hermite --dim 6 --seed 4",
    "sobolev-N6-P256":
        "full-report --example sobolev --dim 6 --size 256 --seed 4",
}
DIAGONAL_REPORTS = list(REPORTS)[:5]

#: Records whose summation order differs between the two paths: the
#: reconstruction ladder takes prefix and suffix sums for a Diagonal.
REORDERED = {"reconstruction": ("residuals", "ratios")}


def assert_records_agree(fast, dense, path="report"):
    """Equal keys, lengths and non-float values; floats within 1e-12."""
    if isinstance(dense, dict):
        assert set(fast) == set(dense), path
        for key in dense:
            assert_records_agree(fast[key], dense[key], f"{path}/{key}")
    elif isinstance(dense, list):
        assert len(fast) == len(dense), path
        for i, (a, b) in enumerate(zip(fast, dense)):
            assert_records_agree(a, b, f"{path}[{i}]")
    elif isinstance(dense, float):
        assert abs(fast - dense) <= TOL * max(1.0, abs(dense)), path
    else:
        assert fast == dense, path


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_reports_equal_the_dense_reference(tmp_path, monkeypatch, name):
    """Each report again with one structure made dense: Diagonal maps as
    np.diag arrays, which take LAPACK and BLAS everywhere, must give the
    same bytes; the triplet scaling as the dense Q diag(w^j) Q^H the same
    verdict words and records within 1e-12."""
    argv = REPORTS[name].split() + ["--no-timing"]

    def report(label):
        out = tmp_path / f"{label}.json"
        assert cli.main(argv + ["--out", str(out)]) == 0
        return out.read_bytes()

    fast = report("fast")
    with monkeypatch.context() as m:
        for module in (spaces, hamiltonian):
            m.setattr(module, "Diagonal", dense_diag)
        diagonal = report("dense-diagonal")
    if fast != diagonal:
        docs = [json.loads(raw) for raw in (fast, diagonal)]
        for doc_fast, doc_ref in zip(*(d["sections"] for d in docs)):
            for key in REORDERED.get(doc_ref["name"], ()):
                np.testing.assert_allclose(doc_fast["records"].pop(key),
                                           doc_ref["records"].pop(key),
                                           rtol=1e-12, atol=0)
        assert docs[0] == docs[1]
    monkeypatch.setattr(WeightedTriplet, "scale", reference_scale)
    fast, scaled = (json.loads(raw) for raw in (fast, report("dense-scale")))
    assert [v["verdict"] for s in fast["sections"] for v in s["verdicts"]] \
        == [v["verdict"] for s in scaled["sections"] for v in s["verdicts"]]
    assert_records_agree(fast, scaled)


@pytest.mark.parametrize("name", DIAGONAL_REPORTS)
def test_reports_never_form_the_dense_view(monkeypatch, capsys, name):
    def refuse(self):
        raise AssertionError("a report formed an N x N Diagonal")

    monkeypatch.setattr(Diagonal, "dense", property(refuse))
    assert cli.main(REPORTS[name].split() + ["--no-timing"]) == 0
    capsys.readouterr()
