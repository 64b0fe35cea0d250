"""The per-sample checks run as array kernels, held to the loops they
replaced.

The partial-sum domination probe, the reconstruction ladder, the metric
positivity samples and the weak-similarity pairs each take one batched
array computation.  Each is compared here with its per-sample reference
loop from `reference.py`: the same random variates in the same order
(the generator ends in the same state), the same verdict inputs, and
residuals at the loop's roundoff.  The call counts at the end keep the
batching from sliding back into one kernel call per sample.
"""
from dataclasses import replace

import numpy as np
import pytest

import rieszlab.cli as cli
from rieszlab import (WeightedTriplet, metric_operator_check,
                      random_unitary, schauder_inequality_probe)

from conftest import count_calls
from reference import (CASES, loop_positivity, loop_probe, loop_residuals,
                       loop_similarity, pairs)


@pytest.fixture(params=sorted(CASES), scope="module")
def fam(request):
    return CASES[request.param]()


def the_generator(monkeypatch, run):
    """Call `run` and return its result with the one generator it made."""
    made = []
    make_rng = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng",
                        lambda *a, **k: made.append(make_rng(*a, **k))
                        or made[-1])
    out = run()
    monkeypatch.undo()
    assert len(made) == 1
    return out, made[0]


def same_state(a, b):
    return a.bit_generator.state == b.bit_generator.state


# -- the draws ---------------------------------------------------------------

@pytest.mark.parametrize("shape", [(100, 4, 64), (50, 2, 16), (3, 2, 1)])
def test_one_array_draw_equals_the_sequential_draws(shape):
    batched = np.random.default_rng(9).standard_normal(shape)
    rng = np.random.default_rng(9)
    rows = [[rng.standard_normal(shape[2]) for _ in range(shape[1])]
            for _ in range(shape[0])]
    assert np.array_equal(batched, np.array(rows))


# -- the kernels -------------------------------------------------------------

@pytest.mark.parametrize("seed", [0, 1, 2])
def test_probe_matches_the_loop(monkeypatch, fam, seed):
    top = fam.triplet.levels
    res, rng = the_generator(
        monkeypatch, lambda: schauder_inequality_probe(fam, top, 60, seed))
    q_level, worst, loop_rng = loop_probe(fam, top, 60, seed)
    assert same_state(rng, loop_rng)
    assert res.q_level == q_level
    assert res.per_level.keys() == worst.keys()
    for q, ratio in worst.items():
        assert res.per_level[q] == pytest.approx(ratio, rel=1e-12)
    assert res.worst_ratio == (None if q_level is None
                               else res.per_level[q_level])


def test_probe_below_the_top_level_matches_the_loop(monkeypatch):
    fam = CASES["schwartz-L3"]()
    res, rng = the_generator(
        monkeypatch, lambda: schauder_inequality_probe(fam, 1, 80, 4))
    q_level, worst, loop_rng = loop_probe(fam, 1, 80, 4)
    assert same_state(rng, loop_rng) and res.q_level == q_level
    assert res.per_level == pytest.approx(worst, rel=1e-12)


def test_reconstruction_matches_the_loop(fam):
    sec = cli.Section("reconstruction", *cli._reconstruct_section(
        cli.ModelBundle("family", fam), cli.RunConfig("reconstruct")))
    f = (2.0 ** -np.arange(1, fam.dim + 1)).astype(complex)
    loop = loop_residuals(fam, f)
    residuals = sec.records["residuals"]
    assert len(residuals) == fam.size + 1
    assert np.max(np.abs(np.subtract(residuals, loop))) <= 1e-12
    assert residuals[0] == loop[0]
    # The verdict reads the order-M partial sum itself.
    assert sec.verdicts[0].evidence["final_residual"] == loop[-1]


@pytest.mark.parametrize("seed", range(10))
def test_positivity_at_the_loop_roundoff(monkeypatch, fam, seed):
    res, rng = the_generator(
        monkeypatch, lambda: metric_operator_check(fam, seed=seed))
    loop, loop_rng = loop_positivity(fam, 50, seed)
    assert same_state(rng, loop_rng)
    assert res.positivity <= 10 * loop
    assert res.positivity < 1e-2 * 1e-8


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("name", ["demo-64", "dense-48"])
def test_weak_similarity_at_the_loop_roundoff(monkeypatch, name, seed):
    pair = pairs()[name]
    cfg = cli.RunConfig("pseudo-hermitian", seed=seed)
    sec, rng = the_generator(
        monkeypatch,
        lambda: cli.Section("weak-similarity", *cli._similarity_section(
            cli.ModelBundle(name, pair=pair), cfg)))
    loop, loop_rng = loop_similarity(pair, cli.SIMILARITY_PAIRS, seed)
    assert same_state(rng, loop_rng)
    worst = sec.records["worst_residual"]
    assert sec.records["pairs"] == cli.SIMILARITY_PAIRS
    assert worst <= 10 * loop
    assert worst < 1e-2 * cfg.tolerances["similarity"]


# With the identity broken by 1e-3, every residual depends on its own
# sample, so the worst one pins which vectors were drawn and paired.

@pytest.mark.parametrize("seed", [0, 5])
def test_positivity_takes_the_loop_samples(fam, seed):
    rng = np.random.default_rng(6)
    shift = rng.standard_normal(fam.dual.shape) \
        + 1j * rng.standard_normal(fam.dual.shape)
    off = replace(fam, dual=np.asarray(fam.dual) + 1e-3 * shift)
    loop, _ = loop_positivity(off, 50, seed)
    assert loop > 1e-3
    assert metric_operator_check(off, seed=seed).positivity == \
        pytest.approx(loop, rel=1e-10)


@pytest.mark.parametrize("seed", [0, 5])
@pytest.mark.parametrize("name", ["demo-64", "dense-48"])
def test_weak_similarity_takes_the_loop_pairs(name, seed):
    pair = pairs()[name]
    off = replace(pair, hamiltonian=pair.hamiltonian
                  + 1e-3 * random_unitary(pair.dim, seed=8))
    sec = cli.Section("weak-similarity", *cli._similarity_section(
        cli.ModelBundle(name, pair=off),
        cli.RunConfig("pseudo-hermitian", seed=seed)))
    loop, _ = loop_similarity(off, cli.SIMILARITY_PAIRS, seed)
    assert loop > 1e-5
    assert sec.records["worst_residual"] == pytest.approx(loop, rel=1e-10)


# -- call counts -------------------------------------------------------------

def run_report(tmp_path, argv):
    out = tmp_path / "report.json"
    assert cli.main(argv + ["--no-timing", "--out", str(out)]) == 0


def test_number_op_report_batches_the_probe_and_the_ladder(tmp_path,
                                                          monkeypatch):
    calls = count_calls(monkeypatch, ("seminorm", "partial_sum"),
                        (WeightedTriplet, cli))
    levels = 2
    run_report(tmp_path, ["full-report", "--example", "number-op", "--dim",
                          "256", "--levels", str(levels), "--seed", "0"])
    # The probe alone reads seminorms: one call per level, the shorter
    # sums riding along at the probe level.  Per sample it took
    # 200 * (levels + 2) calls, and the ladder 257 partial sums.
    assert 1 <= calls["seminorm"] <= levels + 1
    assert calls["partial_sum"] == 1


def test_pseudo_hermitian_report_takes_one_similarity_call(tmp_path,
                                                          monkeypatch):
    calls = count_calls(monkeypatch, ("weak_similarity_residual",), (cli,))
    run_report(tmp_path, ["pseudo-hermitian", "--dim", "256", "--seed", "0"])
    assert calls == {"weak_similarity_residual": 1}
