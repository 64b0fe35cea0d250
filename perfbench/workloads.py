"""Benchmark workloads and the seeded inputs they read.

Every workload is a fixed round of CLI requests that one client sends in
a closed loop.  The workload seed goes into ``--seed`` and into the
generated files; the program sees nothing else.  All requests carry
``--no-timing``, so a repeated request must print the same bytes, and
each request pins the verdict words its report must contain, in report
order.  The pinned words hold for every seed.
"""
from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

TRANSFORM_DIM = 64

# Section-by-section verdicts of the built-in examples, in report order.
_NUMBER_OP_L1 = ("pass",) * 5 + ("strict",) + ("pass",) * 5
_NUMBER_OP_L2 = ("pass",) * 5 + ("non-strict", "pass", "inconclusive",
                                 "pass", "pass", "pass")
_SCHWARTZ = ("pass",) * 4 + ("non-strict",) + ("pass",) * 4
_HERMITE = ("pass",) * 3
_SOBOLEV = ("pass",) * 9 + ("inconclusive",)
_PSEUDO = ("pass",) * 4


@dataclass(frozen=True)
class Request:
    """One CLI invocation and the verdict words its report must carry."""

    argv: tuple
    verdicts: tuple

    @property
    def fmt(self):
        return "csv" if "csv" in self.argv else "json"

    @property
    def label(self):
        """Command and built-in example, e.g. ``full-report number-op``."""
        if "--example" in self.argv:
            return f"{self.argv[0]} {self.argv[self.argv.index('--example') + 1]}"
        return self.argv[0]


def _haar_unitary(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n))
                        + 1j * rng.standard_normal((n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def write_inputs(seed, directory):
    """Write the seeded input files and return their paths by role.

    - ``transform``: a 64 x 64 transform U diag(s) V^H with singular
      values spread over [1, 2], so its condition number is 2 for every
      seed;
    - ``vector``: a unit probe vector of length 64;
    - ``config``: the pseudo-Hermitian config, carrying a ``psi_seed``
      drawn from the workload seed.
    """
    from rieszlab.reportio import save_complex_matrix

    rng = np.random.default_rng(seed)
    n = TRANSFORM_DIM
    s = np.linspace(1.0, 2.0, n)
    transform = (_haar_unitary(rng, n) * s) @ _haar_unitary(rng, n).conj().T
    probe = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    probe /= np.linalg.norm(probe)
    paths = {role: os.path.join(directory, name) for role, name in
             (("transform", "transform.csv"), ("vector", "probe.csv"),
              ("config", "pseudo.json"))}
    save_complex_matrix(paths["transform"], transform)
    save_complex_matrix(paths["vector"], probe[:, None])
    with open(paths["config"], "w") as fh:
        json.dump({"pseudo": {"psi_seed": int(rng.integers(0, 2 ** 31))}},
                  fh)
    return paths


def _req(words, verdicts, *extra):
    return Request(tuple(words.split()) + tuple(extra) + ("--no-timing",),
                   verdicts)


def sobolev_dense(seed, paths):
    """Dense grid path: P x P frame, scalings and certificate SVDs."""
    return [_req(f"full-report --example sobolev --dim 10 --size 1024 "
                 f"--seed {seed}", _SOBOLEV)]


def coef_ladder(seed, paths):
    """Canonical N = 256 models: riesz ladders and the Hamiltonian pair."""
    return [
        _req(f"full-report --example number-op --dim 256 --levels 2 "
             f"--seed {seed}", _NUMBER_OP_L2),
        _req(f"pseudo-hermitian --dim 256 --seed {seed}", _PSEUDO,
             "--config", paths["config"]),
    ]


def cli_small(seed, paths):
    """Nine small requests where per-request overhead does the work."""
    t = ("--transform", paths["transform"], "--weight-rule", "linear")
    return [
        _req(f"full-report --example number-op --dim 8 --seed {seed}",
             _NUMBER_OP_L1),
        _req(f"full-report --example schwartz --dim 8 --seed {seed}",
             _SCHWARTZ),
        _req(f"full-report --example hermite --dim 10 --seed {seed}",
             _HERMITE),
        _req(f"pseudo-hermitian --dim 32 --seed {seed}", _PSEUDO,
             "--config", paths["config"]),
        _req("reconstruct", ("pass",), *t, "--vector", paths["vector"]),
        _req("riesz-fischer", ("pass",), *t, "--format", "csv"),
        _req(f"bessel --seed {seed}", ("pass", "pass"), *t),
        _req("strictness", ("inconclusive",), *t, "--format", "csv"),
        _req("frame-report", ("pass", "pass"), *t),
    ]


WORKLOADS = {
    "sobolev-dense": sobolev_dense,
    "coef-ladder": coef_ladder,
    "cli-small": cli_small,
}
