"""Command-line diagnostics driver.

Nine commands share one configuration surface (a JSON file plus flag
overrides) and emit the same deterministic report: a meta block carrying
the configuration digest and named sections whose verdicts always come
with numeric evidence.  Exit status reflects operational success only;
failed or tainted diagnostics are data inside the report, never a
process error.  A section builder returns (records, verdicts), named by
its `SECTIONS` key; sections are independent of each other, so a runner
may compute them in any order, and the command fixes assembly order.
"""
from __future__ import annotations

import argparse
import ctypes
import functools
import json
import sys
import time
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .errors import ConfigError, RieszLabError
from .hamiltonian import (DEFAULT_PSI_SEED, EQUALITY_TOL, HamiltonianPair,
                          demo_pair, demo_transform, density_diagnostic,
                          eigen_residual, hermitian_defect, nonnormality,
                          spectrum_residual, weak_similarity_residual)
from .reportio import (DiagnosticsReport, SCHEMA_VERSION, Section, Verdict,
                       config_digest, load_complex_matrix, render_report,
                       save_report)
from .riesz import (GRAM_TOL, POSITIVITY_TOL, _realized, make_riesz_basis,
                    metric_operator_check, strictness_constants,
                    strictness_report, transport_residuals)
from .sequences import (BIORTH_TOL, DOMINATION_FACTOR, SequenceFamily,
                        bessel_bound, bessel_bound_lanczos, bessel_factor,
                        biorthogonality_residual, dual_level_norm,
                        dual_row_masses, frame_operator, level_gram,
                        max_deviation, partial_sum, partial_sum_residuals,
                        riesz_fischer_check, schauder_inequality_probe,
                        weak_expansion_residual)
from .spaces import (ALIASING_TOL, CONSTRUCTION_TOL, DEFAULT_LADDER,
                     SUPPORT_TOL, LineGrid, default_half_width, hermite_grid,
                     number_operator_model, number_operator_rule,
                     schwartz_hermite_model, sobolev_model, sobolev_multiplier)
from .trends import checked_ladder
from .triplet import WeightedTriplet

COMMANDS = ("check-biorthogonal", "frame-report", "bessel", "riesz-fischer",
            "strictness", "reconstruct", "example", "pseudo-hermitian",
            "full-report")
# Commands whose diagnostics draw random probes; these refuse to run
# without an explicit seed so reports stay reproducible.
SEEDED = frozenset({"bessel", "example", "pseudo-hermitian", "full-report"})
EXAMPLES = ("number-op", "schwartz", "hermite", "sobolev")
WEIGHT_RULES = ("ones", "linear", "quadratic")
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3  # glibc mallopt(3) keys

#: Random draws per report: partial-sum probe trials, weak-similarity pairs.
SCHAUDER_TRIALS = 200
SIMILARITY_PAIRS = 100

DEFAULT_TOLERANCES = {
    "aliasing": ALIASING_TOL,
    "biorthogonality": BIORTH_TOL,
    "composition": 1e-12,
    "constants_window": 1e-6,
    "construction": CONSTRUCTION_TOL,
    "eigen": 1e-10,
    "equality": EQUALITY_TOL,
    "frame_positivity": 1e-12,
    "gram": GRAM_TOL,
    "positivity": POSITIVITY_TOL,
    "reconstruction": 1e-12,
    "roundtrip": 1e-12,
    "similarity": 1e-10,
    "spectrum": 1e-8,
    "support": SUPPORT_TOL,
}

# The pseudo-Hermitian knobs and their defaults.
PSEUDO_DEFAULTS = {"psi_seed": DEFAULT_PSI_SEED}


@dataclass
class RunConfig:
    """Resolved run configuration: one command plus model and output knobs.

    `dim` is the model dimension for coefficient-space models and the
    family size for function-space examples; `size` is the grid point
    count.  All randomized probes consume the single `seed`.  Construction
    validates every field and then resolves the ones left unset (None, a
    JSON null, is unset), so each field holds the value the run uses.
    `ladder` feeds every trend diagnostic: strictness and admissibility.
    """

    command: str
    example: str | None = None
    dim: int | None = None
    levels: int | None = None
    size: int | None = None
    half_width: float | None = None
    weights: tuple | None = None
    weight_rule: str | None = None
    ladder: tuple | None = None
    inputs: dict = field(default_factory=dict)
    pseudo: dict = field(default_factory=dict)
    seed: int | None = None
    tolerances: dict = field(default_factory=dict)
    out: str | None = None
    fmt: str = "json"
    no_timing: bool = False

    def __post_init__(self):
        if self.command not in COMMANDS:
            raise ConfigError(f"unknown command {self.command!r}")
        if self.example is not None and self.example not in EXAMPLES:
            raise ConfigError(
                f"unknown example {self.example!r}; choose from "
                + ", ".join(EXAMPLES))
        if self.fmt not in ("json", "csv"):
            raise ConfigError(f"unknown report format {self.fmt!r}")
        if self.weight_rule is None:
            self.weight_rule = "ones"
        if self.weight_rule not in WEIGHT_RULES:
            raise ConfigError(f"unknown weight rule {self.weight_rule!r}")
        self.ladder = checked_ladder(
            DEFAULT_LADDER if self.ladder is None else self.ladder)
        for name, low in (("seed", 0), ("dim", 1), ("levels", 1),
                          ("size", 1)):
            _check_int(getattr(self, name), name, low)
        try:
            if self.half_width is not None:
                self.half_width = float(self.half_width)
            if self.weights is not None:
                self.weights = tuple(float(w) for w in self.weights)
        except (TypeError, ValueError) as exc:
            raise ConfigError(
                f"half width and weights must be numbers: {exc}") from exc
        _check_keys(self.tolerances, "tolerance", DEFAULT_TOLERANCES)
        self.tolerances = {**DEFAULT_TOLERANCES,
                           **{k: _checked_tolerance(k, v)
                              for k, v in self.tolerances.items()}}
        _check_keys(self.pseudo, "pseudo", PSEUDO_DEFAULTS)
        self.pseudo = {**PSEUDO_DEFAULTS, **{
            k: v for k, v in self.pseudo.items() if v is not None}}
        _check_int(self.pseudo["psi_seed"], "psi_seed", 0)
        if self.seed is None and self.command in SEEDED:
            raise ConfigError(
                f"command {self.command!r} draws random probes and needs "
                "an explicit --seed")
        if self.command in ("example", "full-report") and self.example is None:
            raise ConfigError("choose an example with --example")
        grid = self.example in ("hermite", "sobolev")  # they read the window
        if self.dim is None:
            self.dim = (32 if self.command == "pseudo-hermitian"
                        else 10 if grid else 8)
        if self.levels is None:
            self.levels = 2 if self.example == "schwartz" else 1
        if self.size is None:
            self.size = 1024
        if self.half_width is None:
            self.half_width = default_half_width(self.dim) if grid else 20.0

    def canonical(self):
        """Digest-relevant view: every resolved field, whether the command
        reads it or not, so two runs that compute the same model from
        different settings of an unread field get different digests.  Its
        keys are the config file's top-level and `model` keys, so a key
        declared there enters the digest.

        Output path, format and the timing switch do not affect any
        computed number, so the same run written twice stays byte
        identical.
        """
        top = sorted(_TOP_KEYS - {"model", "output", "no_timing"})
        return {**{key: getattr(self, key) for key in top},
                "model": {key: getattr(self, key)
                          for key in sorted(_MODEL_KEYS)}}


def _check_int(value, name, low):
    """Reject a set value that is not an integer >= low (None is unset)."""
    if value is None:
        return
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise ConfigError(f"{name} must be at least {low}, got {value}")


def _checked_tolerance(key, value):
    try:
        tol = float(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"tolerance {key!r} is not a number") from exc
    if not (np.isfinite(tol) and tol > 0.0):
        raise ConfigError(
            f"tolerance {key!r} must be finite and positive, got {value!r}")
    return tol


def _check_keys(block, name, allowed):
    unknown = set(block) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown {name} keys: " + ", ".join(sorted(unknown)))


# -- configuration loading ---------------------------------------------------

_TOP_KEYS = {"command", "example", "model", "inputs", "pseudo", "seed",
             "tolerances", "output", "no_timing"}
_MODEL_KEYS = {"dim", "levels", "size", "half_width", "weights",
               "weight_rule", "ladder"}
_INPUT_KEYS = {"family", "dual", "transform", "vector"}


def load_config_file(path):
    """Parse a JSON configuration file into plain keyword arguments."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    _check_keys(raw, "config", _TOP_KEYS)
    kw = {key: raw[key] for key in ("command", "example", "seed", "no_timing")
          if key in raw}
    if "model" in raw:
        kw.update(_group_dict(raw, "model", _MODEL_KEYS))
    # A null leaves its key unset here as in every other block.
    if "inputs" in raw:
        inputs = _group_dict(raw, "inputs", _INPUT_KEYS)
        kw["inputs"] = {k: str(v) for k, v in inputs.items() if v is not None}
    for name in ("pseudo", "tolerances"):  # RunConfig checks their keys
        if name in raw:
            kw[name] = _group_dict(raw, name)
    if "output" in raw:
        out = _group_dict(raw, "output", {"path", "format"})
        for key, name in (("path", "out"), ("format", "fmt")):
            if out.get(key) is not None:
                kw[name] = str(out[key])
    return kw


def _group_dict(raw, name, allowed=None):
    block = raw[name]
    if not isinstance(block, dict):
        raise ConfigError(f"{name!r} must be an object")
    if allowed is not None:
        _check_keys(block, name, allowed)
    return dict(block)


class _Parser(argparse.ArgumentParser):
    """Refuses a bad command line with a ConfigError, so that it ends like
    every other refused input: one `error:` line and status 2."""

    def error(self, message):
        raise ConfigError(message)


@functools.cache
def build_parser():
    # Unset flags stay out of the namespace, so its vars are the overrides.
    parser = _Parser(
        prog="rieszlab", argument_default=argparse.SUPPRESS,
        description="Deterministic diagnostics for weighted coefficient "
                    "models, transported bases and intertwined operator "
                    "pairs.")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", help="JSON configuration file")
    parser.add_argument("--example", help="built-in model name")
    parser.add_argument("--dim", type=int,
                        help="model dimension / family size")
    parser.add_argument("--levels", type=int, help="seminorm levels")
    parser.add_argument("--size", type=int, help="grid points (power of two)")
    parser.add_argument("--half-width", type=float,
                        help="grid window half width")
    parser.add_argument("--weight-rule",
                        help="weights for file models: ones, linear, quadratic")
    parser.add_argument("--ladder", help="comma-separated dimensions")
    parser.add_argument("--family", help="CSV of family columns")
    parser.add_argument("--dual", help="CSV of dual columns")
    parser.add_argument("--transform", help="CSV of the transported map")
    parser.add_argument("--vector", help="CSV of a probe vector")
    parser.add_argument("--seed", type=int, help="seed for random probes")
    parser.add_argument("--tolerance", action="append",
                        metavar="KEY=VALUE", help="override one tolerance")
    parser.add_argument("--out", help="report output path (default stdout)")
    parser.add_argument("--format", dest="fmt", choices=("json", "csv"))
    parser.add_argument("--no-timing", action="store_true",
                        help="omit wall-clock fields for byte-stable output")
    return parser


def config_from_args(args):
    flags = dict(vars(args))
    path = flags.pop("config", None)
    kw = load_config_file(path) if path else {}
    ladder = flags.pop("ladder", None)
    if ladder is not None:
        try:
            kw["ladder"] = [int(p) for p in ladder.split(",") if p.strip()]
        except ValueError as exc:
            raise ConfigError(f"cannot parse ladder {ladder!r}") from exc
    inputs = {k: flags.pop(k) for k in sorted(_INPUT_KEYS) if k in flags}
    kw["inputs"] = {**kw.get("inputs", {}), **inputs}
    tolerances = kw.setdefault("tolerances", {})
    for item in flags.pop("tolerance", ()):
        key, sep, value = item.partition("=")
        if not sep:
            raise ConfigError(f"--tolerance wants KEY=VALUE, got {item!r}")
        tolerances[key.strip()] = value
    try:
        return RunConfig(**{**kw, **flags})
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc


# -- model resolution --------------------------------------------------------

@dataclass
class ModelBundle:
    """Everything a section builder may need, resolved once per run.

    Coefficient-space models fill the family (and the basis when a
    transform exists); function-space examples add the grid, the Hermite
    columns sampled on it and their worst aliasing fraction, and the
    Sobolev example also the round-trip defect its construction measured.
    The ladder rule feeds trend diagnostics and returns a basis or, for
    families truncated by column count, a family; the pseudo-Hermitian
    command resolves to its pair, with the rule of its transform at each
    ladder dimension.
    """

    label: str
    family: SequenceFamily | None = None
    basis: object | None = None
    ladder_rule: object | None = None
    grid: LineGrid | None = None
    hermite: np.ndarray | None = None
    aliasing: float | None = None
    round_trip: float | None = None
    pair: HamiltonianPair | None = None

    def require_family(self):
        if self.family is None:
            raise ConfigError(
                f"model {self.label!r} has no sequence family; this command "
                "needs one")
        return self.family


def resolve_model(cfg):
    if cfg.command == "pseudo-hermitian":
        return ModelBundle("pseudo-hermitian", ladder_rule=demo_transform,
                           pair=demo_pair(cfg.dim, cfg.pseudo["psi_seed"]))
    if cfg.example is not None:
        return _resolve_example(cfg)
    if "transform" in cfg.inputs:
        t = load_complex_matrix(cfg.inputs["transform"])
        if t.ndim != 2 or t.shape[0] != t.shape[1]:
            raise ConfigError("transform file must hold a square matrix")
        tri = _file_triplet(cfg, t.shape[0])
        basis = make_riesz_basis(t, tri)
        return ModelBundle("transform-file", basis.fam, basis)
    if "family" in cfg.inputs:
        xi = load_complex_matrix(cfg.inputs["family"])
        if xi.ndim != 2:
            raise ConfigError("family file must hold a matrix of columns")
        dual = None
        if "dual" in cfg.inputs:
            dual = load_complex_matrix(cfg.inputs["dual"],
                                       expected_shape=xi.shape)
        tri = _file_triplet(cfg, xi.shape[0])
        return ModelBundle("family-file", SequenceFamily(xi, tri, dual=dual))
    raise ConfigError(
        "no model: pass --example, or --transform / --family files")


def _file_triplet(cfg, dim):
    if cfg.weights is not None:
        w = np.asarray(cfg.weights, dtype=float)
        if w.shape != (dim,):
            raise ConfigError(
                f"{dim} weights needed for the loaded model, got {w.shape[0]}")
    else:
        k = np.arange(1, dim + 1, dtype=float)
        w = {"ones": k ** 0, "linear": k, "quadratic": k ** 2}[cfg.weight_rule]
    return WeightedTriplet(dim, w, cfg.levels)


def _resolve_example(cfg):
    dim, levels, tol = cfg.dim, cfg.levels, cfg.tolerances
    if cfg.example == "number-op":
        _, basis = number_operator_model(dim, levels, cfg.ladder)
        return ModelBundle("number-op", basis.fam, basis,
                           number_operator_rule(levels))
    if cfg.example == "schwartz":
        return ModelBundle(
            "schwartz", schwartz_hermite_model(dim, levels)[1],
            ladder_rule=lambda n: schwartz_hermite_model(n, levels)[1])
    # Both function-space examples take the grid one rule decides.
    grid, hermite, aliasing = hermite_grid(dim, cfg.half_width, cfg.size,
                                           tol["support"], tol["aliasing"])
    if cfg.example == "hermite":
        return ModelBundle("hermite", grid=grid, hermite=hermite,
                           aliasing=aliasing)
    # sobolev, the last of EXAMPLES
    fam, round_trip = sobolev_model(grid, hermite)

    def truncation(m):
        if m > fam.size:
            raise ConfigError(
                f"ladder rung {m} exceeds the {fam.size} Sobolev columns; "
                "raise --dim or lower the ladder")
        return SequenceFamily(fam.family[:, :m], fam.triplet)

    return ModelBundle("sobolev", fam, ladder_rule=truncation, grid=grid,
                       hermite=hermite, aliasing=aliasing,
                       round_trip=round_trip)


# -- section builders --------------------------------------------------------

def _pf(ok):
    return "pass" if ok else "fail"


def _at_most(name, key, value, tol, **evidence):
    return Verdict(name, _pf(value <= tol),
                   {key: value, "tolerance": tol, **evidence})


def _biorthogonality_section(bundle, cfg):
    fam = bundle.require_family()
    bound = cfg.tolerances["biorthogonality"]
    res = biorthogonality_residual(fam)
    records = {"residual": res, "family_rank": fam.pinv_rank[1],
               "family_size": fam.size, "dimension": fam.dim}
    return records, [Verdict(
        "family-dual-pairings", "pass" if res <= bound else "tainted",
        {"residual": res, "tolerance": bound})]


def _construction_section(bundle, cfg):
    basis = bundle.basis
    r_txi, r_dual, r_chain = transport_residuals(basis)
    # Z = T^H, so ||T||_{1->0} = sigma_max(T S_-1) is the dual's level-1 norm.
    cert = {(1, 0): dual_level_norm(basis.fam, 1)}
    records = {"transform_times_family": r_txi,
               "dual_vs_adjoint": r_dual,
               "metric_chain": r_chain,
               "continuity_certificate": cert}
    worst = max(r_txi, r_dual, r_chain)
    return records, [_at_most("transported-identities", "worst_residual",
                              worst, cfg.tolerances["composition"])]


def _frame_section(bundle, cfg):
    fam = bundle.require_family()
    floor = cfg.tolerances["frame_positivity"]
    op = frame_operator(fam)
    # The canonical directions give a deterministic positivity probe.
    diag = dual_row_masses(fam)
    least = float(np.min(diag))
    records = {"certificate": op.certificate, "smallest_diagonal": least,
               "largest_diagonal": float(np.max(diag))}
    return records, [Verdict(
        "positivity-on-canonical-directions", _pf(least >= -floor),
        {"smallest_diagonal": least, "tolerance": floor})]


def _bessel_section(bundle, cfg):
    fam = bundle.require_family()
    eq = cfg.tolerances["equality"]
    levels = {}
    ok = True
    for j in range(1, fam.triplet.levels + 1):
        bound = bessel_bound(fam, j)
        ritz, residual, steps = bessel_bound_lanczos(fam, j, eq, cfg.seed)
        levels[j] = {"bound": bound, "ritz": ritz, "residual": residual,
                     "steps": steps}
        slack = eq * (1 + bound)
        # One chained comparison, so a NaN anywhere fails the level.
        ok = ok and bound - (residual + slack) <= ritz <= bound + slack
    factor = bessel_factor(fam)
    cert = factor.certificate[(0, -1)]
    gap = abs(cert ** 2 - levels[1]["bound"])
    records = {"levels": levels,
               "factor_certificate": cert,
               "factor_squared_vs_bound": gap}
    return records, [
        Verdict("lanczos-attains-certified", _pf(ok),
                {"levels": levels, "tolerance": eq}),
        Verdict("factorization-identity",
                _pf(gap <= eq * (1 + cert ** 2)),
                {"gap": gap, "certificate": cert})]


def _riesz_fischer_section(bundle, cfg):
    fam = bundle.require_family()
    res = riesz_fischer_check(fam)
    records = {"rank": res.rank, "family_size": fam.size,
               "flattening_residual": res.residual, "note": res.note}
    return records, [Verdict("flattening-map-exists", _pf(res.ok),
                             {"rank": res.rank, "residual": res.residual})]


def _metric_section(bundle, cfg):
    fam = bundle.require_family()
    tol = cfg.tolerances
    res = metric_operator_check(fam, seed=cfg.seed,
                                positivity_tol=tol["positivity"])
    records = {"certificate": res.metric.certificate,
               "positivity_defect": res.positivity,
               "coefficient_level": res.p_zeta_level,
               "level_constants": res.level_constants,
               "biorthogonality": res.biorthogonality}
    return records, [Verdict(
        "equivalent-formulations", res.verdict,
        {"positivity_defect": res.positivity,
         "tolerance": tol["positivity"],
         "coefficient_level": res.p_zeta_level})]


def _strictness_section(bundle, cfg):
    if bundle.ladder_rule is not None:
        report = strictness_report(bundle.ladder_rule, cfg.ladder)
        lower, upper, verdict = report.lower, report.upper, report.verdict
        records = {"ladder": report.ladder, "lower": lower, "upper": upper,
                   "lower_slope": report.lower_slope,
                   "upper_slopes": report.upper_slopes, "note": report.note}
    else:
        fam = bundle.require_family()
        lower, upper = strictness_constants(fam)
        verdict = "inconclusive"
        records = {"dimension": fam.dim, "lower": lower, "upper": upper,
                   "note": "single truncation cannot exhibit a trend"}
    return records, [Verdict("two-sided-constants-trend", verdict,
                             {"lower": lower, "upper": upper})]


def _schauder_section(bundle, cfg):
    fam = bundle.require_family()
    probe = schauder_inequality_probe(fam, fam.triplet.levels,
                                      SCHAUDER_TRIALS, cfg.seed)
    records = {"dominating_level": probe.q_level,
               "worst_ratio": probe.worst_ratio,
               "per_level": probe.per_level}
    return records, [Verdict(
        "declared-factor-holds", _pf(probe.q_level is not None),
        {"per_level": probe.per_level, "factor": DOMINATION_FACTOR})]


def _realization_section(bundle, cfg):
    basis = bundle.basis
    if basis.strict != "strict":
        note = f"needs a strict ladder verdict, have {basis.strict}"
        return {"note": note}, [Verdict("collapse-to-hilbert-triplet",
                                        "inconclusive",
                                        {"strict": basis.strict})]
    gram_tol = cfg.tolerances["gram"]
    tri, defect, _ = _realized(basis)
    records = {"weight_min": float(np.min(tri.weights)),
               "weight_max": float(np.max(tri.weights))}
    return records, [Verdict(
        "collapse-to-hilbert-triplet", _pf(defect <= gram_tol),
        {**records, "gram_defect": defect, "gram_tolerance": gram_tol})]


def _reconstruct_section(bundle, cfg):
    fam = bundle.require_family()
    tol = cfg.tolerances
    if "vector" in cfg.inputs:
        f = load_complex_matrix(cfg.inputs["vector"],
                                expected_shape=(fam.dim, 1))[:, 0]
    else:
        f = (2.0 ** -np.arange(1, fam.dim + 1)).astype(complex)
    residuals = partial_sum_residuals(fam, f)
    ratios = [residuals[n + 1] / residuals[n]
              for n in range(fam.size) if residuals[n] > 0.0]
    weak = weak_expansion_residual(fam, np.ones(fam.dim), f, fam.size)
    records = {"residuals": residuals, "ratios": ratios,
               "weak_expansion_residual": weak}
    final = float(np.linalg.norm(f - partial_sum(fam, f, fam.size)))
    if final <= tol["reconstruction"]:
        verdict = "pass"
    elif fam.size < fam.dim:
        verdict = "inconclusive"
        records["note"] = ("family does not span the truncation; the "
                           "residual floor is the distance to its span")
    else:
        verdict = "fail"
    return records, [Verdict(
        "expansion-converges", verdict,
        {"final_residual": final, "tolerance": tol["reconstruction"],
         "weak_expansion_residual": weak})]


def _grid_records(bundle):
    """The grid decision both function-space sections record."""
    return {"worst_aliasing_fraction": bundle.aliasing,
            "grid_points": bundle.grid.points,
            "half_width": bundle.grid.half_width}


def _hermite_section(bundle, cfg):
    grid, vals, alias = bundle.grid, bundle.hermite, bundle.aliasing
    count = cfg.dim
    tol = cfg.tolerances
    idx = int(np.argmin(np.abs(grid.nodes)))
    at0 = vals[idx, :]
    x = grid.nodes
    phi0 = np.pi ** -0.25 * np.exp(-0.5 * x * x)
    closed = [phi0, np.sqrt(2.0) * x * phi0,
              (np.sqrt(2.0) * x ** 2 - np.sqrt(0.5)) * phi0]
    rec = max(float(np.max(np.abs(vals[:, n] - closed[n])))
              for n in range(min(count, 3)))
    gram_defect = max_deviation(grid.spacing * (vals.T @ vals))
    records = {"value_at_zero_0": float(at0[0]),
               "value_at_zero_1": float(at0[1]) if count > 1 else None,
               "closed_form_residual": rec,
               "gram_defect": gram_defect, **_grid_records(bundle)}
    return records, [
        Verdict("recurrence-vs-closed-forms",
                _pf(rec <= tol["equality"]
                    and abs(at0[0] - np.pi ** -0.25) <= tol["equality"]),
                {"closed_form_residual": rec,
                 "value_at_zero_defect": abs(float(at0[0]) - np.pi ** -0.25)}),
        _at_most("quadrature-orthonormality", "gram_defect", gram_defect,
                 tol["gram"]),
        _at_most("band-limited-resolution", "worst_aliasing_fraction", alias,
                 tol["aliasing"])]


def _sobolev_section(bundle, cfg):
    grid, fam, phis = bundle.grid, bundle.family, bundle.hermite
    tol = cfg.tolerances
    # The triplet's S_-1 built the family; the multiplier is its reference.
    reference = np.sqrt(grid.spacing) * sobolev_multiplier(grid, -1.0, phis)
    worst_build = float(np.max(np.linalg.norm(fam.family - reference, axis=0)))
    worst_round = bundle.round_trip
    mod_defect = max_deviation(level_gram(fam, 1))
    gram_defect = max_deviation(grid.spacing * (phis.T @ phis))
    lower, upper = strictness_constants(fam)
    top = fam.triplet.levels
    records = {"construction_residual": worst_build,
               "round_trip_residual": worst_round,
               "hermite_gram_defect": gram_defect,
               "modified_gram_defect": mod_defect,
               "lower_constant": lower,
               "upper_constants": upper, **_grid_records(bundle)}
    window = tol["constants_window"]
    in_window = (abs(lower - 1.0) <= window
                 and abs(upper[top] - 1.0) <= window)
    return records, [
        _at_most("inverse-multiplier-construction", "construction_residual",
                 worst_build, tol["construction"]),
        _at_most("multiplier-round-trip", "round_trip_residual", worst_round,
                 tol["roundtrip"]),
        _at_most("modified-orthonormality", "modified_gram_defect",
                 mod_defect, tol["gram"]),
        Verdict("level-constants-near-one", _pf(in_window),
                {"lower": lower, "upper_top": upper[top], "window": window})]


def _spectral_section(bundle, cfg):
    pair = bundle.pair
    tol = cfg.tolerances
    eigen = eigen_residual(pair)
    spec = spectrum_residual(pair)
    defect = hermitian_defect(pair)
    records = {"eigen_residual": eigen, "spectrum_residual": spec,
               "hermitian_defect": defect, "degenerate": pair.degenerate,
               "nonnormality": nonnormality(pair.hamiltonian,
                                            tol["equality"], cfg.seed)}
    return records, [
        _at_most("eigenpairs", "eigen_residual", eigen, tol["eigen"]),
        _at_most("real-spectrum", "spectrum_residual", spec, tol["spectrum"],
                 hermitian_defect=defect)]


def _similarity_section(bundle, cfg):
    pair = bundle.pair
    # Row t holds re xi, im xi, re eta and im eta of pair t: the stream
    # order of drawing the pairs one by one.
    draws = np.random.default_rng(cfg.seed).standard_normal(
        (SIMILARITY_PAIRS, 4, pair.dim))
    units = draws[:, 0::2] + 1j * draws[:, 1::2]
    units /= np.linalg.norm(units, axis=2, keepdims=True)
    xi, eta = units.transpose(1, 2, 0)
    worst = float(np.max(weak_similarity_residual(pair, xi, eta), initial=0.0))
    records = {"worst_residual": worst, "pairs": SIMILARITY_PAIRS}
    return records, [_at_most("intertwining-identity", "worst_residual",
                              worst, cfg.tolerances["similarity"])]


def _admissibility_section(bundle, cfg):
    trend = density_diagnostic(bundle.ladder_rule, cfg.ladder)
    records = asdict(trend)
    return records, [Verdict(
        "dual-density-trend",
        "pass" if trend.flag in ("growing", "benign") else "inconclusive",
        {"slope": trend.slope, "ladder": trend.ladder})]


# Section name -> builder(bundle, cfg), which returns (records, verdicts).
SECTIONS = {
    "construction": _construction_section,
    "biorthogonality": _biorthogonality_section,
    "frame-operator": _frame_section,
    "bessel": _bessel_section,
    "riesz-fischer": _riesz_fischer_section,
    "metric-operator": _metric_section,
    "strictness": _strictness_section,
    "partial-sum-domination": _schauder_section,
    "triplet-realization": _realization_section,
    "reconstruction": _reconstruct_section,
    "hermite-values": _hermite_section,
    "sobolev-family": _sobolev_section,
    "spectral": _spectral_section,
    "weak-similarity": _similarity_section,
    "admissibility": _admissibility_section,
}


# -- commands ----------------------------------------------------------------

_FAMILY_BATTERY = ("biorthogonality", "bessel", "metric-operator",
                   "strictness", "partial-sum-domination")
# The sections `example` runs for each built-in model, in report order.
BATTERIES = {
    "number-op": ("construction",) + _FAMILY_BATTERY
                 + ("triplet-realization",),
    "schwartz": _FAMILY_BATTERY,
    "hermite": ("hermite-values",),
    "sobolev": ("sobolev-family", "biorthogonality", "bessel"),
}
# `full-report` appends these to the battery of a model with a family.
FULL_REPORT_EXTRA = ("frame-operator", "riesz-fischer", "reconstruction")
COMMAND_SECTIONS = {
    "check-biorthogonal": ("biorthogonality",),
    "frame-report": ("biorthogonality", "frame-operator"),
    "bessel": ("bessel",),
    "riesz-fischer": ("riesz-fischer",),
    "strictness": ("strictness",),
    "reconstruct": ("reconstruction",),
    "pseudo-hermitian": ("spectral", "weak-similarity", "admissibility"),
}


def _section_names(cfg, bundle):
    if cfg.command not in ("example", "full-report"):
        return COMMAND_SECTIONS[cfg.command]
    names = BATTERIES[cfg.example]
    if cfg.command == "full-report" and bundle.family is not None:
        names += FULL_REPORT_EXTRA
    return names


def run(cfg):
    """Execute one configured command and assemble its report."""
    start = time.perf_counter()
    bundle = resolve_model(cfg)
    sections = [Section(name, *SECTIONS[name](bundle, cfg))
                for name in _section_names(cfg, bundle)]
    meta = {
        "schema_version": SCHEMA_VERSION,
        "tool": "rieszlab",
        "tool_version": __version__,
        "command": cfg.command,
        "seed": cfg.seed,
        "config_hash": config_digest(cfg.canonical()),
    }
    if not cfg.no_timing:
        meta["generated_at"] = datetime.now(timezone.utc).isoformat()
        meta["duration_seconds"] = time.perf_counter() - start
    return DiagnosticsReport(meta, sections)


@functools.cache
def _keep_freed_arrays():
    """Reuse freed array memory rather than page-fault it back in."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # not glibc: keep defaults
        return
    mallopt(M_MMAP_THRESHOLD, 4 << 20)
    mallopt(M_TRIM_THRESHOLD, 16 << 20)


def main(argv=None):
    _keep_freed_arrays()
    try:
        cfg = config_from_args(build_parser().parse_args(argv))
        report = run(cfg)
        if cfg.out:
            save_report(report, cfg.out, cfg.fmt)
        else:
            sys.stdout.write(render_report(report, cfg.fmt))
    except RieszLabError as exc:
        message = str(exc)
    # Failures of the numeric kernels end like a refused input, untraced.
    except np.linalg.LinAlgError as exc:
        message = f"linear algebra failure: {exc}"
    except MemoryError as exc:
        message = f"out of memory: {exc}" if str(exc) else "out of memory"
    else:
        return 0
    print(f"error: {message}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
