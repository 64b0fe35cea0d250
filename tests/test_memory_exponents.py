"""Memory exponents of whole reports.

tracemalloc peaks are deterministic, so the growth of a report's peak
with its size is pinned as the log-log slope, from
`trends.loglog_slope`, between two sizes per model: at most 1.1 for the
number-operator model at one and two levels, the Schwartz model and the
Sobolev model in its grid size P, and at most 2.1 for `pseudo-hermitian`,
whose pair holds dense N x N matrices.  Each run takes under 0.5 s on
two cores.
"""
import tracemalloc

import pytest

from rieszlab.cli import main
from rieszlab.trends import loglog_slope

#: model -> (argv with the size as {}, two sizes, largest slope)
MODELS = {
    "number-op-L1": ("full-report --example number-op --levels 1 --dim {}",
                     (1024, 4096), 1.1),
    "number-op-L2": ("full-report --example number-op --levels 2 --dim {}",
                     (1024, 4096), 1.1),
    "schwartz": ("full-report --example schwartz --dim {}", (1024, 4096),
                 1.1),
    "sobolev-P": ("full-report --example sobolev --dim 10 --size {}",
                  (4096, 16384), 1.1),
    "pseudo-hermitian": ("pseudo-hermitian --dim {}", (128, 256), 2.1),
}


def peak_bytes(argv, capsys):
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0, capsys.readouterr().err
    capsys.readouterr()
    return peak


@pytest.mark.parametrize("model", sorted(MODELS))
def test_report_peak_grows_no_faster_than_declared(model, capsys):
    argv, sizes, bound = MODELS[model]
    peaks = [peak_bytes((argv.format(n) + " --seed 0 --no-timing").split(),
                        capsys) for n in sizes]
    assert loglog_slope(sizes, peaks) <= bound
