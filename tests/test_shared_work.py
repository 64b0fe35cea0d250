"""Work the diagnostics share: one SVD per family and per dual level, one
scaling per held map and level, one QR per thin scaled factor, and the
draws of the sampled Bessel sup.

`SequenceFamily` memoises its pseudo-inverse, and its scaled maps with
their R factors and singular values (`sigma`, from the R factor of a
tall map).  That must be invisible in the numbers: every value is
compared with `==` against fresh SVDs (the scalings, R factors and
singular values in `reference.check_memo`), and the reports' SVD,
scaling and QR counts are pinned.

`bessel_bound_sampled` draws each random point only in the coordinates
the level operator sees: the row space of the level's scaled dual, the
stream of `reference.reference_row_space`, with which it agrees bit for
bit.  The law of its sup is checked against the full complex Gaussian
stream of `reference.reference_sampled` by a two-sample
Kolmogorov-Smirnov test.
"""
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import ks_2samp

import rieszlab.cli as cli
from rieszlab import hamiltonian, riesz, sequences
from rieszlab import (InjectivityError, SequenceFamily, WeightedTriplet,
                      bessel_bound, bessel_bound_sampled, frame_operator,
                      level_gram, metric_operator_check, riesz_fischer_check,
                      save_complex_matrix)
from rieszlab.sequences import dual_level_norm, pseudo_inverse

from conftest import well_conditioned_transform
from reference import CASES, FAMILIES, reference_row_space, reference_sampled


@pytest.fixture(params=sorted(CASES))
def fam(request):
    return CASES[request.param]()


@pytest.mark.parametrize("name", sorted(CASES) + ["sobolev-P1024"])
def test_sampled_equals_the_row_space_reference(name):
    fam = FAMILIES[name]()
    # 3000 samples take two chunks on every case here.  A real row-space
    # operator (the number-op, schwartz, Sobolev and real-thin families)
    # takes two real products per chunk, the reference four, with the
    # zero imaginary part included.
    for j in range(1, fam.triplet.levels + 1):
        sampled = bessel_bound_sampled(fam, j, samples=3000, seed=4)
        assert sampled == reference_row_space(fam, j, samples=3000, seed=4)
        assert 0.0 < sampled <= bessel_bound(fam, j) * (1 + 1e-12)


class TestFamilyMemo:
    def test_inverse_matches_a_fresh_pseudo_inverse(self, fam):
        pinv, rank = fam.pinv_rank
        fresh, fresh_rank = pseudo_inverse(fam.family)
        assert np.array_equal(pinv, fresh) and rank == fresh_rank
        assert fam.pinv_rank is fam.pinv_rank
        with pytest.raises(ValueError):
            np.asarray(pinv)[0, 0] = 0.0

    def test_dual_level_norms_match_a_fresh_svd(self, fam):
        for j in range(fam.triplet.levels + 1):
            fresh = np.linalg.svd(fam.triplet.scale(-j, fam.dual),
                                  compute_uv=False)[0]
            assert dual_level_norm(fam, j) == float(fresh)
            assert dual_level_norm(fam, j) == float(fresh)

    def test_tall_maps_take_their_singular_values_from_r(self):
        tall, square = CASES["sobolev-P256"](), CASES["transform-64"]()
        for fam in (tall, square):
            s = fam.sigma(-1, "dual")
            assert fam.sigma(-1, "dual") is s and not s.flags.writeable
        assert ("R", -1, "dual") in tall._memo
        assert ("R", -1, "dual") not in square._memo

    def test_replace_starts_with_empty_memos(self):
        fam = CASES["number-op-L2"]()
        norm = dual_level_norm(fam, 1)
        _ = fam.pinv_rank
        _ = fam.scaled(-1, "dual"), fam.r_factor(1)
        twice = replace(fam, dual=2.0 * np.asarray(fam.dual))
        assert "pinv_rank" not in vars(twice) and twice._memo == {}
        assert dual_level_norm(twice, 1) == pytest.approx(2.0 * norm,
                                                          rel=1e-14)

    def test_memoised_arrays_are_read_only(self):
        fam = CASES["sobolev-P256"]()
        frame_operator(fam)
        riesz_fischer_check(fam)
        level_gram(fam, 1)
        arrays = [a for a in fam._memo.values() if isinstance(a, np.ndarray)]
        # Xi, Z, E_M and (Xi^+)^H, at levels 0 and -1 or 1, and the R
        # factors of the thin factors of the three maps.
        assert len(arrays) == 10
        for a in arrays + [fam.family, fam.dual, fam.pinv_rank[0]]:
            with pytest.raises(ValueError):
                a[0, 0] = 0.0
        assert fam.scaled(0) is fam.family
        assert fam.scaled(0, "dual") is fam.dual

    def test_a_writable_input_is_held_as_a_view(self):
        xi = np.eye(3, 2, dtype=complex)
        fam = SequenceFamily(xi, WeightedTriplet(3, (1.0, 2.0, 3.0)))
        xi[0, 0] = 5.0  # the caller's array stays writable
        assert fam.family[0, 0] == 5.0 and not fam.family.flags.writeable

    def test_checks_read_the_memoised_rank(self):
        tri = WeightedTriplet(2, (1.0, 2.0))
        fam = SequenceFamily(np.diag([1.0, 1e-14]), tri, dual=np.eye(2))
        assert fam.pinv_rank[1] == 1
        assert riesz_fischer_check(fam).rank == 1
        with pytest.raises(InjectivityError):
            metric_operator_check(fam)

    def test_metric_and_riesz_fischer_share_one_svd(self, monkeypatch):
        fam = CASES["number-op-L2"]()
        calls = []
        monkeypatch.setattr("rieszlab.sequences.pseudo_inverse",
                            lambda *a: calls.append(1) or pseudo_inverse(*a))
        riesz_fischer_check(fam)
        metric_operator_check(fam)
        assert len(calls) == 1


# -- the whole report ------------------------------------------------------

NUMBER_OP = ["full-report", "--example", "number-op", "--dim", "16",
             "--levels", "2", "--seed", "5", "--no-timing"]


def report_bytes(tmp_path, argv, name):
    out = tmp_path / name
    assert cli.main(argv + ["--out", str(out)]) == 0
    return out.read_bytes()


@pytest.mark.parametrize("command", [
    "check-biorthogonal", "frame-report", "full-report"])
def test_each_command_takes_the_inverse_once(tmp_path, monkeypatch, command):
    calls = []
    monkeypatch.setattr("rieszlab.sequences.pseudo_inverse",
                        lambda *a: calls.append(1) or pseudo_inverse(*a))
    report_bytes(tmp_path, [command] + NUMBER_OP[1:], "report.json")
    # The biorthogonality rank reads the memo that riesz-fischer and
    # metric-operator share, whichever of them the command runs.
    assert len(calls) == 1


def counting_draws(monkeypatch, section=(None,)):
    """Count the variates each generator method hands out, keyed by
    (section[0], method); `section` is read at every draw."""
    drawn = {}
    make_rng = np.random.default_rng

    class CountingGenerator:
        def __init__(self, *args, **kwargs):
            self._rng = make_rng(*args, **kwargs)

        def __getattr__(self, name):
            method = getattr(self._rng, name)

            def draw(*args, **kwargs):
                out = method(*args, **kwargs)
                key = (section[0], name)
                drawn[key] = drawn.get(key, 0) + np.size(out)
                return out
            return draw

    monkeypatch.setattr(np.random, "default_rng", CountingGenerator)
    return drawn


def test_number_op_report_draws_once_and_saves_four_svds(tmp_path,
                                                        monkeypatch):
    section, kernels, svds, scales = [None], [0], [0], [0]
    svd = np.linalg.svd
    drawn = counting_draws(monkeypatch, section)

    def counting(count, kernel):
        def wrapper(*args, **kwargs):
            count[0] += 1
            return kernel(*args, **kwargs)
        return wrapper

    def tracked(name, build):
        def builder(bundle, cfg):
            section[0] = name
            return build(bundle, cfg)
        return builder

    monkeypatch.setattr(np.linalg, "svd", counting(svds, svd))
    monkeypatch.setattr(WeightedTriplet, "scale",
                        counting(scales, WeightedTriplet.scale))
    # The two SVD kernels are bound by name wherever they are imported.
    for kernel in (sequences.singular_values, sequences.pseudo_inverse):
        wrapper = counting(kernels, kernel)
        for module in (sequences, riesz, hamiltonian):
            if getattr(module, kernel.__name__, None) is kernel:
                monkeypatch.setattr(module, kernel.__name__, wrapper)
    for name, build in list(cli.SECTIONS.items()):
        monkeypatch.setitem(cli.SECTIONS, name, tracked(name, build))
    report_bytes(tmp_path, NUMBER_OP, "counted.json")
    # One complex Lanczos start vector of M = 16 entries per level.
    # Per-section pseudo-inverses and dual-level norms would take 46 SVDs;
    # the memos save five.  Of the nine bases (the model and two four-rung
    # ladders) none certifies its T: `construction` reads the model's
    # ||T||_{1->0} as the memoised level-1 norm of the dual Z = T^H, which
    # `bessel` and `metric-operator` reuse.  Its own certificate of T took
    # one more SVD and two more scalings (42 and 21), and a certificate per
    # basis 50 SVDs and 55 scalings.  Each family scales each held map once
    # per level: 19 scalings, where the sections took 39 before the
    # scalings were memoised.
    assert {name: count for (where, name), count in drawn.items()
            if where == "bessel"} == {"standard_normal": 2 * 2 * 16}
    assert kernels[0] == 41
    assert scales[0] == 19
    # The number-op model declares every map a Diagonal, so none of them
    # reaches LAPACK.
    assert svds[0] == 0


def test_sobolev_report_scales_and_factors_each_map_once(tmp_path,
                                                       monkeypatch):
    scales, qrs, svds = [], [], []
    scale, qr, svd = WeightedTriplet.scale, np.linalg.qr, np.linalg.svd

    def counting_scale(tri, j, x):
        scales.append((j, x))
        return scale(tri, j, x)

    monkeypatch.setattr(WeightedTriplet, "scale", counting_scale)
    monkeypatch.setattr(np.linalg, "qr",
                        lambda a, *args, **kw: qrs.append(a) or qr(a, *args,
                                                                   **kw))
    monkeypatch.setattr(np.linalg, "svd", lambda a, *args, **kw: svds.append(
        np.shape(a)) or svd(a, *args, **kw))
    report_bytes(tmp_path, ["full-report", "--example", "sobolev", "--size",
                            "1024", "--seed", "0", "--no-timing"], "s.json")
    # The model's S_-1 and S_1 of sqrt(h) phi, which build Xi and Z, then
    # S_1 Xi, S_-1 Z and S_-1 (Xi^+)^H, each once; level 0 is the held map.
    # Three before, when a spectral multiplier built Xi and Z; the sections
    # took 11 scalings before the memo.
    assert sorted(j for j, _ in scales) == [-1, -1, -1, 1, 1]
    assert len({(j, id(x)) for j, x in scales}) == 5
    assert len({id(x) for _, x in scales}) == 4  # sqrt(h) phi at two levels
    # One R factor each of S_-1 Z (Bessel factor, frame operator and
    # Bessel bound), E_M (Bessel factor and flattening map), S_-1 (Xi^+)^H,
    # and Xi and S_1 Xi (strictness constants), where the certificates took
    # six; three before the singular values were read from R factors.
    assert len(qrs) == 5 and len({id(a) for a in qrs}) == 5
    # The pseudo-inverse is the only SVD of a P x M array; the Bessel bound
    # and the strictness constants took three more before `sigma`.
    assert svds.count((1024, 10)) == 1
    assert set(svds) == {(1024, 10), (10, 10)}


def test_transform_reconstruction_takes_one_svd(tmp_path, monkeypatch):
    # The pseudo-inverse of T is the only SVD: a basis carries no
    # certificate of T, which `reconstruct` does not read.
    path = tmp_path / "transform.csv"
    save_complex_matrix(path, well_conditioned_transform(
        np.random.default_rng(3), 64))
    calls, svd = [], np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd",
                        lambda *a, **k: calls.append(1) or svd(*a, **k))
    report_bytes(tmp_path, ["reconstruct", "--transform", str(path),
                            "--no-timing"], "reconstruct.json")
    assert len(calls) == 1


# -- the stream --------------------------------------------------------------

@pytest.mark.parametrize("name, stream", [
    ("number-op-L2", "row-space"),
    ("sobolev-P256", "row-space"),
    ("transform-64", "row-space"),
])
def test_each_family_draws_its_stream(monkeypatch, name, stream):
    fam = CASES[name]()
    levels, n, m = fam.triplet.levels, fam.dim, fam.size
    rank = {"row-space": min(m, n)}[stream]
    drawn = counting_draws(monkeypatch)
    for j in range(1, levels + 1):
        bessel_bound_sampled(fam, j, samples=500)
    expected = {
        "row-space": {"standard_normal": levels * 2 * rank * 500,
                      "standard_gamma": levels * 500},
    }[stream]
    assert {name: count for (_, name), count in drawn.items()} == expected


def test_dense_chunks_follow_the_element_cap(monkeypatch):
    # A 64-column cap makes 300 points take five chunks instead of one,
    # which assigns the draws to other points.
    fam = CASES["graph-norm-L2"]()
    monkeypatch.setattr(sequences, "_CHUNK_ELEMENTS", fam.dim * 64)
    capped = bessel_bound_sampled(fam, 1, samples=300, seed=4)
    assert capped == reference_row_space(fam, 1, samples=300, seed=4)
    monkeypatch.undo()
    assert capped != bessel_bound_sampled(fam, 1, samples=300, seed=4)


@pytest.mark.parametrize("name, level, seeds", [
    ("sobolev-P256", 1, 200),
    ("number-op-L2", 2, 300),
    ("graph-norm-L2", 2, 200),
    ("transform-64", 1, 200),
])
def test_streams_keep_the_law_of_the_full_stream(name, level, seeds):
    # The sup over 200 points, once per seed, from the family's own stream
    # and from the full complex Gaussian stream on disjoint seeds.
    fam = CASES[name]()
    drawn = [bessel_bound_sampled(fam, level, samples=200, seed=s)
             for s in range(seeds)]
    full = [reference_sampled(fam, level, samples=200, seed=10 ** 6 + s)
            for s in range(seeds)]
    assert ks_2samp(drawn, full).pvalue > 0.01
