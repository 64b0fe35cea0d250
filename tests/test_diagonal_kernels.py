"""Real diagonal matrices take their SVD results in closed form.

`sequences._real_diagonal` routes the singular values and
pseudo-inverses of a real diagonal matrix around LAPACK.  Patching it to
return None gives the dense reference, and every value here must equal
that reference with `==`.  On the package's diagonal models (entries
+-k^j, in any order, with signs and exact zeros) and on power-of-two
magnitudes from 2^-498 to 2^498 (about 1e-150 to 1e150), LAPACK returns
the exact sorted |d| and signed permutations.

Elsewhere LAPACK itself rounds: it rescales a matrix whose largest entry
lies outside its safe range by a factor that need not be a power of two,
and its divide-and-conquer singular vectors (N > 25) are not exact
permutations for general entries.  There the closed form is the exact
answer and LAPACK is within a few ulp of it; `test_generic_diagonals`
bounds that gap.
"""
import numpy as np
import pytest

import rieszlab.cli as cli
from rieszlab import WeightedTriplet, certificate_norm, sequences
from rieszlab.sequences import pseudo_inverse, singular_values

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


@pytest.fixture
def shortcuts(monkeypatch):
    """Counts the matrices that took the closed form."""
    taken = []
    real_diagonal = sequences._real_diagonal

    def counting(a):
        d = real_diagonal(a)
        taken.append(d is not None)
        return d

    monkeypatch.setattr(sequences, "_real_diagonal", counting)
    return taken


def dense(monkeypatch, kernel, *args, **kwargs):
    """`kernel` on the LAPACK and BLAS path."""
    with monkeypatch.context() as m:
        m.setattr(sequences, "_real_diagonal", lambda a: None)
        return kernel(*args, **kwargs)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n", SIZES)
def test_kernels_equal_lapack(monkeypatch, shortcuts, n, kind):
    d = model_diagonal(n, kind, np.random.default_rng(n))
    a = np.diag(d).astype(complex)
    s = singular_values(a)
    assert np.array_equal(s, dense(monkeypatch, singular_values, a))
    assert np.array_equal(s, np.sort(np.abs(d))[::-1])
    pinv, rank = pseudo_inverse(a)
    ref_pinv, ref_rank = dense(monkeypatch, pseudo_inverse, a)
    assert rank == ref_rank and np.array_equal(pinv, ref_pinv)
    if kind == "k^-2-zeros" and n > 1:
        assert rank == n - (n + 1) // 3
    # Power-of-two weights keep the scaled power-of-two entries exact.
    weights = 2.0 ** (np.arange(n) % 3) if kind == "pow2-wide" \
        else np.arange(1.0, n + 1)
    tri = WeightedTriplet(n, weights, 2)
    for fr, to in [(0, 0), (1, -1), (2, 0), (-1, 1)]:
        assert certificate_norm(a, tri, fr, to) == \
            dense(monkeypatch, certificate_norm, a, tri, fr, to)
    assert shortcuts and all(shortcuts)


@pytest.mark.parametrize("n", [8, 64, 256])
def test_generic_diagonals(monkeypatch, shortcuts, n):
    rng = np.random.default_rng(7)
    d = rng.standard_normal(n) * 10.0 ** rng.integers(-150, 151, n)
    d[::5] = 0.0
    a = np.diag(d).astype(complex)
    s = singular_values(a)
    assert np.array_equal(s, np.sort(np.abs(d))[::-1])
    np.testing.assert_allclose(s, dense(monkeypatch, singular_values, a),
                               rtol=8 * np.finfo(float).eps, atol=0)
    pinv, rank = pseudo_inverse(a)
    ref_pinv, ref_rank = dense(monkeypatch, pseudo_inverse, a)
    assert rank == ref_rank
    kept = np.abs(d) > 1e-12 * np.max(np.abs(d))
    assert np.array_equal(np.diag(pinv)[kept], 1.0 / d[kept])
    np.testing.assert_allclose(pinv, ref_pinv, rtol=8 * np.finfo(float).eps,
                               atol=0)


@pytest.mark.parametrize("case", ["complex-phase", "off-diagonal",
                                  "non-square", "non-finite"])
def test_other_matrices_take_lapack(monkeypatch, case):
    n = 8
    a = np.diag(np.arange(1.0, n + 1)).astype(complex)
    if case == "complex-phase":
        a[3, 3] = 4j
    elif case == "off-diagonal":
        a[0, 5] = 1e-300
    elif case == "non-square":
        a = a[:, :5]
    else:
        a[2, 2] = np.inf
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd",
                        lambda *args, **kw: calls.append(1) or svd(*args, **kw))
    assert sequences._real_diagonal(a) is None
    if case != "non-finite":
        singular_values(a)
    pseudo_inverse(a)
    assert len(calls) == (1 if case == "non-finite" else 2)


def test_real_dtype_and_empty_matrices():
    d = np.array([3.0, -1.0, 0.0])
    assert np.array_equal(sequences._real_diagonal(np.diag(d)), d)
    assert sequences._real_diagonal(np.zeros((0, 0))).size == 0
    assert singular_values(np.zeros((0, 0), dtype=complex)).size == 0
    pinv, rank = pseudo_inverse(np.zeros((0, 0)))
    assert pinv.shape == (0, 0) and rank == 0
    pinv, rank = pseudo_inverse(np.zeros((3, 3)))
    assert rank == 0 and not pinv.any()


@pytest.mark.parametrize("argv", [
    ["full-report", "--example", "number-op", "--dim", "8"],
    ["full-report", "--example", "number-op", "--dim", "256", "--levels",
     "2"],
    ["full-report", "--example", "schwartz", "--dim", "16", "--levels", "3"],
    ["pseudo-hermitian", "--dim", "32"],
    ["pseudo-hermitian", "--dim", "256"],
], ids=["number-op-N8", "number-op-N256-L2", "schwartz-N16-L3",
        "pseudo-hermitian-N32", "pseudo-hermitian-N256"])
def test_reports_equal_the_dense_reference(tmp_path, monkeypatch, capsys,
                                           shortcuts, argv):
    argv = argv + ["--seed", "3", "--no-timing"]

    def report(name):
        out = tmp_path / name
        code = cli.main(argv + ["--out", str(out)])
        return code, out.read_bytes(), capsys.readouterr()

    fast = report("fast.json")
    assert any(shortcuts)
    reference = dense(monkeypatch, report, "dense.json")
    assert fast[0] == 0 and reference == fast
