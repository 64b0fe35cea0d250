"""Command-line diagnostics driver.

Nine commands share one configuration surface (a JSON file plus flag
overrides) and emit the same deterministic report: a meta block carrying
the configuration digest and named sections whose verdicts always come
with numeric evidence.  Exit status reflects operational success only;
failed or tainted diagnostics are data inside the report, never a
process error.  Sections are independent of each other, so a runner may
compute them in any order; assembly order is fixed by the command.
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, field
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .errors import ConfigError, RieszLabError
from .hamiltonian import (demo_pair, density_diagnostic, eigen_residual,
                          nonnormality, spectrum_residual,
                          weak_similarity_residual)
from .reportio import (DiagnosticsReport, SCHEMA_VERSION, Section, Verdict,
                       config_digest, load_complex_matrix, render_csv,
                       render_json, save_report)
from .riesz import (hilbert_triplet_realization, make_riesz_basis,
                    metric_operator_check, strictness_constants,
                    strictness_report)
from .sequences import (SequenceFamily, bessel_bound, bessel_bound_sampled,
                        bessel_factor, biorthogonality_residual, family_rank,
                        frame_operator, level_gram, partial_sum,
                        riesz_fischer_check, schauder_inequality_probe,
                        weak_expansion_residual)
from .spaces import (LineGrid, aliasing_fraction, hermite_gram, hermite_grid,
                     hermite_values, number_operator_model,
                     schwartz_hermite_model, sobolev_basis, sobolev_multiplier)
from .triplet import WeightedTriplet

COMMANDS = ("check-biorthogonal", "frame-report", "bessel", "riesz-fischer",
            "strictness", "reconstruct", "example", "pseudo-hermitian",
            "full-report")
# Commands whose diagnostics draw random probes; these refuse to run
# without an explicit seed so reports stay reproducible.
SEEDED = frozenset({"bessel", "example", "pseudo-hermitian", "full-report"})
EXAMPLES = ("number-op", "schwartz", "hermite", "sobolev")
WEIGHT_RULES = ("ones", "linear", "quadratic")
DEFAULT_LADDER = (8, 16, 32, 64)

DEFAULT_TOLERANCES = {
    "aliasing": 1e-10,
    "biorthogonality": 1e-10,
    "composition": 1e-12,
    "constants_window": 1e-6,
    "construction": 1e-10,
    "eigen": 1e-10,
    "equality": 1e-12,
    "frame_positivity": 1e-12,
    "gram": 1e-8,
    "positivity": 1e-8,
    "reconstruction": 1e-12,
    "roundtrip": 1e-12,
    "similarity": 1e-10,
    "spectrum": 1e-8,
    "support": 1e-12,
}


@dataclass
class RunConfig:
    """Resolved run configuration: one command plus model and output knobs.

    `dim` is the model dimension for coefficient-space models and the
    family size for function-space examples; `size` is the grid point
    count.  All randomized probes consume the single `seed`.
    """

    command: str
    example: str | None = None
    dim: int | None = None
    levels: int | None = None
    size: int = 1024
    half_width: float = 20.0
    weights: tuple | None = None
    weight_rule: str = "ones"
    ladder: tuple = DEFAULT_LADDER
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
        if self.weight_rule not in WEIGHT_RULES:
            raise ConfigError(f"unknown weight rule {self.weight_rule!r}")
        self.ladder = _checked_ladder(self.ladder, "ladder")
        if self.weights is not None:
            self.weights = tuple(float(w) for w in self.weights)
        unknown = set(self.tolerances) - set(DEFAULT_TOLERANCES)
        if unknown:
            raise ConfigError(
                "unknown tolerance keys: " + ", ".join(sorted(unknown)))
        self.tolerances = {**DEFAULT_TOLERANCES,
                           **{k: float(v) for k, v in self.tolerances.items()}}
        bad = set(self.pseudo) - {"lambda_rule", "T_rule", "psi_seed",
                                  "N_ladder"}
        if bad:
            raise ConfigError(
                "unknown pseudo-hermitian keys: " + ", ".join(sorted(bad)))
        if self.seed is None and self.command in SEEDED:
            raise ConfigError(
                f"command {self.command!r} draws random probes and needs "
                "an explicit --seed")
        if self.command in ("example", "full-report") and self.example is None:
            raise ConfigError("choose an example with --example")

    @property
    def effective_dim(self):
        if self.dim is not None:
            return int(self.dim)
        if self.command == "pseudo-hermitian":
            return 32
        if self.example in ("hermite", "sobolev"):
            return 10
        return 8

    @property
    def effective_levels(self):
        if self.levels is not None:
            return int(self.levels)
        return 2 if self.example == "schwartz" else 1

    def canonical(self):
        """Digest-relevant view: everything that shapes the diagnostics.

        Output path, format and the timing switch do not affect any
        computed number, so the same run written twice stays byte
        identical.
        """
        return {
            "command": self.command,
            "example": self.example,
            "model": {
                "dim": self.effective_dim,
                "levels": self.effective_levels,
                "size": int(self.size),
                "half_width": float(self.half_width),
                "weights": list(self.weights) if self.weights else None,
                "weight_rule": self.weight_rule,
                "ladder": list(self.ladder),
            },
            "inputs": dict(sorted(self.inputs.items())),
            "pseudo": dict(sorted(self.pseudo.items())),
            "seed": self.seed,
            "tolerances": dict(sorted(self.tolerances.items())),
        }


def _checked_ladder(values, name):
    try:
        ladder = tuple(int(v) for v in values)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{name} must be a list of integers") from exc
    if not ladder or any(n < 1 for n in ladder):
        raise ConfigError(f"{name} needs positive dimensions")
    if any(b <= a for a, b in zip(ladder, ladder[1:])):
        raise ConfigError(f"{name} must be strictly increasing")
    return ladder


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
    unknown = set(raw) - _TOP_KEYS
    if unknown:
        raise ConfigError("unknown config keys: " + ", ".join(sorted(unknown)))
    kw = {}
    for key in ("command", "example", "seed", "no_timing"):
        if key in raw:
            kw[key] = raw[key]
    model = _group(raw, "model", _MODEL_KEYS)
    kw.update(model)
    if "inputs" in raw:
        inputs = _group_dict(raw, "inputs", _INPUT_KEYS)
        kw["inputs"] = {k: str(v) for k, v in inputs.items()}
    if "pseudo" in raw:
        if not isinstance(raw["pseudo"], dict):
            raise ConfigError("'pseudo' must be an object")
        kw["pseudo"] = dict(raw["pseudo"])
    if "tolerances" in raw:
        if not isinstance(raw["tolerances"], dict):
            raise ConfigError("'tolerances' must be an object")
        kw["tolerances"] = dict(raw["tolerances"])
    if "output" in raw:
        out = _group_dict(raw, "output", {"path", "format"})
        if "path" in out:
            kw["out"] = str(out["path"])
        if "format" in out:
            kw["fmt"] = str(out["format"])
    return kw


def _group(raw, name, allowed):
    if name not in raw:
        return {}
    return _group_dict(raw, name, allowed)


def _group_dict(raw, name, allowed):
    block = raw[name]
    if not isinstance(block, dict):
        raise ConfigError(f"{name!r} must be an object")
    unknown = set(block) - allowed
    if unknown:
        raise ConfigError(
            f"unknown {name} keys: " + ", ".join(sorted(unknown)))
    return dict(block)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="rieszlab",
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
    parser.add_argument("--half-width", type=float, dest="half_width",
                        help="grid window half width")
    parser.add_argument("--weight-rule", dest="weight_rule",
                        help="weights for file models: ones, linear, quadratic")
    parser.add_argument("--ladder", help="comma-separated dimensions")
    parser.add_argument("--family", help="CSV of family columns")
    parser.add_argument("--dual", help="CSV of dual columns")
    parser.add_argument("--transform", help="CSV of the transported map")
    parser.add_argument("--vector", help="CSV of a probe vector")
    parser.add_argument("--seed", type=int, help="seed for random probes")
    parser.add_argument("--tolerance", action="append", default=None,
                        metavar="KEY=VALUE", help="override one tolerance")
    parser.add_argument("--out", help="report output path (default stdout)")
    parser.add_argument("--format", dest="fmt", choices=("json", "csv"))
    parser.add_argument("--no-timing", dest="no_timing", action="store_true",
                        default=None,
                        help="omit wall-clock fields for byte-stable output")
    return parser


def config_from_args(args):
    kw = load_config_file(args.config) if args.config else {}
    for key in ("command", "example", "dim", "levels", "size", "half_width",
                "weight_rule", "seed", "out", "fmt", "no_timing"):
        value = getattr(args, key)
        if value is not None:
            kw[key] = value
    if args.ladder is not None:
        try:
            kw["ladder"] = [int(p) for p in args.ladder.split(",") if p.strip()]
        except ValueError as exc:
            raise ConfigError(f"cannot parse ladder {args.ladder!r}") from exc
    inputs = dict(kw.get("inputs", {}))
    for key in ("family", "dual", "transform", "vector"):
        value = getattr(args, key)
        if value is not None:
            inputs[key] = value
    if inputs:
        kw["inputs"] = inputs
    if args.tolerance:
        overrides = dict(kw.get("tolerances", {}))
        for item in args.tolerance:
            key, sep, value = item.partition("=")
            if not sep:
                raise ConfigError(f"--tolerance wants KEY=VALUE, got {item!r}")
            try:
                overrides[key.strip()] = float(value)
            except ValueError as exc:
                raise ConfigError(
                    f"tolerance {key.strip()!r} is not a number") from exc
        kw["tolerances"] = overrides
    try:
        return RunConfig(**kw)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc


# -- model resolution --------------------------------------------------------

@dataclass
class ModelBundle:
    """Everything a command runner may need, resolved once per run.

    Coefficient-space models fill triplet/family (and basis/ladder_rule
    when a transform exists); function-space examples add the grid.  The
    ladder rule feeds trend diagnostics and may return (triplet, matrix)
    pairs for families truncated by column count.
    """

    label: str
    triplet: WeightedTriplet | None = None
    family: SequenceFamily | None = None
    basis: object | None = None
    ladder_rule: object | None = None
    grid: LineGrid | None = None

    def require_family(self):
        if self.family is None:
            raise ConfigError(
                f"model {self.label!r} has no sequence family; this command "
                "needs one")
        return self.family


def _rule_weights(rule, n):
    k = np.arange(1, n + 1, dtype=float)
    if rule == "ones":
        return np.ones(n)
    if rule == "linear":
        return k
    return k ** 2


def resolve_model(cfg):
    if cfg.example is not None:
        return _resolve_example(cfg)
    if "transform" in cfg.inputs:
        t = load_complex_matrix(cfg.inputs["transform"])
        if t.ndim != 2 or t.shape[0] != t.shape[1]:
            raise ConfigError("transform file must hold a square matrix")
        tri = _file_triplet(cfg, t.shape[0])
        basis = make_riesz_basis(t, tri)
        return ModelBundle("transform-file", tri, basis.fam, basis)
    if "family" in cfg.inputs:
        xi = load_complex_matrix(cfg.inputs["family"])
        if xi.ndim != 2:
            raise ConfigError("family file must hold a matrix of columns")
        dual = None
        if "dual" in cfg.inputs:
            dual = load_complex_matrix(cfg.inputs["dual"],
                                       expected_shape=xi.shape)
        tri = _file_triplet(cfg, xi.shape[0])
        return ModelBundle("family-file", tri,
                           SequenceFamily(xi, tri, dual=dual))
    raise ConfigError(
        "no model: pass --example, or --transform / --family files")


def _file_triplet(cfg, dim):
    if cfg.weights is not None:
        w = np.asarray(cfg.weights, dtype=float)
        if w.shape != (dim,):
            raise ConfigError(
                f"{dim} weights needed for the loaded model, got {w.shape[0]}")
    else:
        w = _rule_weights(cfg.weight_rule, dim)
    return WeightedTriplet(dim, w, cfg.effective_levels)


def _resolve_example(cfg):
    dim = cfg.effective_dim
    levels = cfg.effective_levels
    if cfg.example == "number-op":
        tri, basis = number_operator_model(dim, levels, cfg.ladder)

        def rule(n):
            w = np.arange(1, n + 1, dtype=float)
            t = WeightedTriplet(n, w, levels)
            return make_riesz_basis(np.diag(w).astype(complex), t)

        return ModelBundle("number-op", tri, basis.fam, basis, rule)
    if cfg.example == "schwartz":
        tri, fam = schwartz_hermite_model(dim, levels)

        def rule(n):
            t = WeightedTriplet(n, np.arange(1, n + 1, dtype=float), levels)
            return t, np.eye(n, dtype=complex)

        return ModelBundle("schwartz", tri, fam, None, rule)
    if cfg.example == "hermite":
        grid = hermite_grid(dim, points=cfg.size)
        return ModelBundle("hermite", grid=grid)
    if cfg.example == "sobolev":
        grid = LineGrid(cfg.half_width, cfg.size)
        fam = sobolev_basis(grid, dim)

        def rule(m):
            return fam.triplet, fam.family[:, :m]

        return ModelBundle("sobolev", fam.triplet, fam, None, rule,
                           grid=grid)
    raise ConfigError(f"unknown example {cfg.example!r}")


# -- section builders --------------------------------------------------------

def _pf(ok):
    return "pass" if ok else "fail"


def _biorthogonality_section(fam, tol):
    res = biorthogonality_residual(fam)
    rank = family_rank(fam.family)
    sec = Section("biorthogonality")
    sec.records = {"residual": res, "family_rank": rank,
                   "family_size": fam.size, "dimension": fam.dim}
    verdict = "pass" if res <= tol["biorthogonality"] else "tainted"
    sec.verdicts.append(Verdict(
        "family-dual-pairings", verdict,
        {"residual": res, "tolerance": tol["biorthogonality"]}))
    return sec


def _construction_section(basis, tol):
    t = basis.transform.matrix
    xi = basis.fam.family
    z = basis.fam.require_dual()
    eye = np.eye(t.shape[0])
    r_txi = float(np.max(np.abs(t @ xi - eye)))
    r_dual = float(np.max(np.abs(z - t.conj().T)))
    r_chain = float(np.max(np.abs(t.conj().T @ t @ xi - z)))
    sec = Section("construction")
    sec.records = {"transform_times_family": r_txi,
                   "dual_vs_adjoint": r_dual,
                   "metric_chain": r_chain,
                   "continuity_certificate": basis.transform.certificate}
    worst = max(r_txi, r_dual, r_chain)
    sec.verdicts.append(Verdict(
        "transported-identities", _pf(worst <= tol["composition"]),
        {"worst_residual": worst, "tolerance": tol["composition"]}))
    return sec


def _frame_section(fam, tol):
    op = frame_operator(fam)
    # The quadratic form <S e_k, e_k> is the k-th dual row mass, so the
    # canonical directions give a deterministic positivity probe.
    z = fam.require_dual()
    diag = np.sum(z.real ** 2 + z.imag ** 2, axis=1)
    sec = Section("frame-operator")
    sec.records = {"certificate": op.certificate,
                   "smallest_diagonal": float(np.min(diag)),
                   "largest_diagonal": float(np.max(diag))}
    sec.verdicts.append(Verdict(
        "positivity-on-canonical-directions",
        _pf(float(np.min(diag)) >= -tol["frame_positivity"]),
        {"smallest_diagonal": float(np.min(diag)),
         "tolerance": tol["frame_positivity"]}))
    return sec


def _bessel_section(fam, seed, tol):
    sec = Section("bessel")
    levels = {}
    ok = True
    for j in range(1, fam.triplet.levels + 1):
        bound = bessel_bound(fam, j)
        sampled = bessel_bound_sampled(fam, j, seed=seed)
        levels[j] = {"bound": bound, "sampled": sampled}
        ok = ok and sampled <= bound + tol["equality"]
    factor = bessel_factor(fam)
    cert = factor.certificate[(0, -1)]
    gap = abs(cert ** 2 - levels[1]["bound"])
    sec.records = {"levels": levels,
                   "factor_certificate": cert,
                   "factor_squared_vs_bound": gap}
    sec.verdicts.append(Verdict(
        "sampled-below-certified", _pf(ok),
        {"levels": levels, "tolerance": tol["equality"]}))
    sec.verdicts.append(Verdict(
        "factorization-identity", _pf(gap <= tol["equality"] * (1 + cert ** 2)),
        {"gap": gap, "certificate": cert}))
    return sec


def _riesz_fischer_section(fam):
    res = riesz_fischer_check(fam)
    sec = Section("riesz-fischer")
    sec.records = {"rank": res.rank, "family_size": fam.size,
                   "flattening_residual": res.residual, "note": res.note}
    sec.verdicts.append(Verdict(
        "flattening-map-exists", _pf(res.ok),
        {"rank": res.rank, "residual": res.residual}))
    return sec


def _metric_section(fam, seed, tol):
    res = metric_operator_check(fam, seed=seed,
                                positivity_tol=tol["positivity"])
    sec = Section("metric-operator")
    sec.records = {"certificate": res.metric.certificate,
                   "positivity_defect": res.positivity,
                   "coefficient_level": res.p_zeta_level,
                   "level_constants": res.level_constants,
                   "biorthogonality": res.biorthogonality}
    sec.verdicts.append(Verdict(
        "equivalent-formulations", res.verdict,
        {"positivity_defect": res.positivity,
         "tolerance": tol["positivity"],
         "coefficient_level": res.p_zeta_level}))
    return sec


def _strictness_section(bundle, cfg):
    sec = Section("strictness")
    if bundle.ladder_rule is not None:
        report = strictness_report(bundle.ladder_rule, cfg.ladder)
        sec.records = {"ladder": report.ladder, "lower": report.lower,
                       "upper": report.upper,
                       "lower_slope": report.lower_slope,
                       "upper_slopes": report.upper_slopes,
                       "note": report.note}
        sec.verdicts.append(Verdict(
            "two-sided-constants-trend", report.verdict,
            {"lower": report.lower, "upper": report.upper}))
        return sec
    fam = bundle.require_family()
    lower, upper = strictness_constants(fam.triplet, fam.family)
    sec.records = {"dimension": fam.dim, "lower": lower, "upper": upper,
                   "note": "single truncation cannot exhibit a trend"}
    sec.verdicts.append(Verdict(
        "two-sided-constants-trend", "inconclusive",
        {"lower": lower, "upper": upper}))
    return sec


def _schauder_section(fam, seed):
    probe = schauder_inequality_probe(fam, fam.triplet.levels, 200, seed)
    sec = Section("partial-sum-domination")
    sec.records = {"dominating_level": probe.q_level,
                   "worst_ratio": probe.worst_ratio,
                   "per_level": probe.per_level}
    sec.verdicts.append(Verdict(
        "declared-factor-holds", _pf(probe.q_level is not None),
        {"per_level": probe.per_level, "factor": 2.0}))
    return sec


def _realization_section(basis, tol):
    sec = Section("triplet-realization")
    if basis is None or basis.strict != "strict":
        have = "no transported basis" if basis is None else basis.strict
        sec.records = {"note": f"needs a strict ladder verdict, have {have}"}
        sec.verdicts.append(Verdict(
            "collapse-to-hilbert-triplet", "inconclusive",
            {"strict": 0 if basis is None else int(basis.strict == "strict")}))
        return sec
    tri = hilbert_triplet_realization(basis, gram_tol=tol["gram"])
    sec.records = {"weight_min": float(np.min(tri.weights)),
                   "weight_max": float(np.max(tri.weights))}
    sec.verdicts.append(Verdict(
        "collapse-to-hilbert-triplet", "pass",
        {"weight_min": float(np.min(tri.weights)),
         "weight_max": float(np.max(tri.weights)),
         "gram_tolerance": tol["gram"]}))
    return sec


def _default_probe(dim):
    return 2.0 ** -np.arange(1, dim + 1)


def _reconstruct_section(fam, cfg):
    tol = cfg.tolerances
    if "vector" in cfg.inputs:
        mat = load_complex_matrix(cfg.inputs["vector"])
        f = mat[:, 0] if mat.ndim == 2 else np.ravel(mat)
        if f.shape[0] != fam.dim:
            raise ConfigError(
                f"probe vector length {f.shape[0]} does not match "
                f"dimension {fam.dim}")
    else:
        f = _default_probe(fam.dim).astype(complex)
    residuals = []
    for n in range(fam.size + 1):
        s = partial_sum(fam, f, n)
        residuals.append(float(np.linalg.norm(f - s.coords)))
    ratios = [residuals[n + 1] / residuals[n]
              for n in range(fam.size) if residuals[n] > 0.0]
    weak = weak_expansion_residual(fam, np.ones(fam.dim), f, fam.size)
    sec = Section("reconstruction")
    sec.records = {"residuals": residuals, "ratios": ratios,
                   "weak_expansion_residual": weak}
    final = residuals[-1]
    if final <= tol["reconstruction"]:
        verdict = "pass"
    elif fam.size < fam.dim:
        verdict = "inconclusive"
        sec.records["note"] = ("family does not span the truncation; the "
                               "residual floor is the distance to its span")
    else:
        verdict = "fail"
    sec.verdicts.append(Verdict(
        "expansion-converges", verdict,
        {"final_residual": final, "tolerance": tol["reconstruction"],
         "weak_expansion_residual": weak}))
    return sec


def _hermite_section(grid, count, tol):
    vals = hermite_values(grid, count)
    idx = int(np.argmin(np.abs(grid.nodes)))
    at0 = vals[idx, :]
    x = grid.nodes
    phi0 = np.pi ** -0.25 * np.exp(-0.5 * x * x)
    closed = [phi0, np.sqrt(2.0) * x * phi0,
              (np.sqrt(2.0) * x ** 2 - np.sqrt(0.5)) * phi0]
    rec = max(float(np.max(np.abs(vals[:, n] - closed[n])))
              for n in range(min(count, 3)))
    gram = hermite_gram(grid, count)
    gram_defect = float(np.max(np.abs(gram - np.eye(count))))
    alias = max(aliasing_fraction(grid, vals[:, n]) for n in range(count))
    sec = Section("hermite-values")
    sec.records = {"value_at_zero_0": float(at0[0]),
                   "value_at_zero_1": float(at0[1]) if count > 1 else None,
                   "closed_form_residual": rec,
                   "gram_defect": gram_defect,
                   "worst_aliasing_fraction": alias,
                   "grid_points": grid.points,
                   "half_width": grid.half_width}
    sec.verdicts.append(Verdict(
        "recurrence-vs-closed-forms",
        _pf(rec <= tol["equality"]
            and abs(at0[0] - np.pi ** -0.25) <= tol["equality"]),
        {"closed_form_residual": rec,
         "value_at_zero_defect": abs(float(at0[0]) - np.pi ** -0.25)}))
    sec.verdicts.append(Verdict(
        "quadrature-orthonormality", _pf(gram_defect <= tol["gram"]),
        {"gram_defect": gram_defect, "tolerance": tol["gram"]}))
    sec.verdicts.append(Verdict(
        "band-limited-resolution", _pf(alias <= tol["aliasing"]),
        {"worst_aliasing_fraction": alias, "tolerance": tol["aliasing"]}))
    return sec


def _sobolev_section(grid, fam, tol):
    count = fam.size
    phis = hermite_values(grid, count)
    scale = np.sqrt(grid.spacing)
    worst_build = 0.0
    worst_round = 0.0
    for n in range(count):
        forward = sobolev_multiplier(grid, 1.0, fam.family[:, n] / scale)
        worst_build = max(worst_build, scale * float(
            np.linalg.norm(forward.values - phis[:, n])))
        down = sobolev_multiplier(grid, -1.0, phis[:, n])
        back = sobolev_multiplier(grid, 1.0, down.values)
        worst_round = max(worst_round, scale * float(
            np.linalg.norm(back.values - phis[:, n])))
    modified = level_gram(fam, 1)
    mod_defect = float(np.max(np.abs(modified - np.eye(count))))
    gram_defect = float(np.max(np.abs(
        hermite_gram(grid, count) - np.eye(count))))
    lower, upper = strictness_constants(fam.triplet, fam.family)
    top = fam.triplet.levels
    sec = Section("sobolev-family")
    sec.records = {"construction_residual": worst_build,
                   "round_trip_residual": worst_round,
                   "hermite_gram_defect": gram_defect,
                   "modified_gram_defect": mod_defect,
                   "lower_constant": lower,
                   "upper_constants": upper}
    sec.verdicts.append(Verdict(
        "inverse-multiplier-construction",
        _pf(worst_build <= tol["construction"]),
        {"construction_residual": worst_build,
         "tolerance": tol["construction"]}))
    sec.verdicts.append(Verdict(
        "multiplier-round-trip", _pf(worst_round <= tol["roundtrip"]),
        {"round_trip_residual": worst_round, "tolerance": tol["roundtrip"]}))
    sec.verdicts.append(Verdict(
        "modified-orthonormality", _pf(mod_defect <= tol["gram"]),
        {"modified_gram_defect": mod_defect, "tolerance": tol["gram"]}))
    window = tol["constants_window"]
    in_window = (abs(lower - 1.0) <= window
                 and abs(upper[top] - 1.0) <= window)
    sec.verdicts.append(Verdict(
        "level-constants-near-one", _pf(in_window),
        {"lower": lower, "upper_top": upper[top], "window": window}))
    return sec


def _pseudo_sections(cfg):
    tol = cfg.tolerances
    pseudo = cfg.pseudo
    lam_rule = pseudo.get("lambda_rule", "linear")
    t_rule = pseudo.get("T_rule", "diag")
    if lam_rule != "linear" or t_rule != "diag":
        raise ConfigError(
            "only the built-in rules lambda_rule='linear', T_rule='diag' "
            "are available")
    psi_seed = int(pseudo.get("psi_seed", 7))
    n_ladder = _checked_ladder(pseudo.get("N_ladder", (8, 16, 32)),
                               "N_ladder")
    dim = cfg.effective_dim
    pair = demo_pair(dim, psi_seed=psi_seed)

    spectral = Section("spectral")
    eig = eigen_residual(pair)
    spec = spectrum_residual(pair)
    spectral.records = {"eigen_residual": eig, "spectrum_residual": spec,
                        "degenerate": pair.degenerate,
                        "nonnormality": nonnormality(pair.hamiltonian)}
    spectral.verdicts.append(Verdict(
        "eigenpairs", _pf(eig <= tol["eigen"]),
        {"eigen_residual": eig, "tolerance": tol["eigen"]}))
    spectral.verdicts.append(Verdict(
        "real-spectrum", _pf(spec <= tol["spectrum"]),
        {"spectrum_residual": spec, "tolerance": tol["spectrum"]}))

    similarity = Section("weak-similarity")
    rng = np.random.default_rng(cfg.seed)
    worst = 0.0
    for _ in range(100):
        xi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        eta = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        xi /= np.linalg.norm(xi)
        eta /= np.linalg.norm(eta)
        worst = max(worst, weak_similarity_residual(pair, xi, eta))
    similarity.records = {"worst_residual": worst, "pairs": 100}
    similarity.verdicts.append(Verdict(
        "intertwining-identity", _pf(worst <= tol["similarity"]),
        {"worst_residual": worst, "tolerance": tol["similarity"]}))

    admissibility = Section("admissibility")
    trend = density_diagnostic(lambda n: demo_pair(n, psi_seed=psi_seed),
                               n_ladder)
    admissibility.records = {"ladder": trend.ladder, "norms": trend.norms,
                             "slope": trend.slope, "flag": trend.flag}
    admissibility.verdicts.append(Verdict(
        "dual-density-trend",
        "pass" if trend.flag in ("growing", "benign") else "inconclusive",
        {"slope": trend.slope if trend.slope is not None else 0.0,
         "ladder": trend.ladder}))
    return [spectral, similarity, admissibility]


# -- command runners ---------------------------------------------------------

def _battery(bundle, cfg):
    tol = cfg.tolerances
    sections = []
    if bundle.label == "hermite":
        sections.append(_hermite_section(bundle.grid, cfg.effective_dim, tol))
        return sections
    if bundle.label == "sobolev":
        sections.append(_sobolev_section(bundle.grid, bundle.family, tol))
        sections.append(_biorthogonality_section(bundle.family, tol))
        sections.append(_bessel_section(bundle.family, cfg.seed, tol))
        return sections
    if bundle.basis is not None:
        sections.append(_construction_section(bundle.basis, tol))
    fam = bundle.require_family()
    sections.append(_biorthogonality_section(fam, tol))
    sections.append(_bessel_section(fam, cfg.seed, tol))
    sections.append(_metric_section(fam, cfg.seed, tol))
    sections.append(_strictness_section(bundle, cfg))
    sections.append(_schauder_section(fam, cfg.seed))
    if bundle.basis is not None:
        sections.append(_realization_section(bundle.basis, tol))
    return sections


def _run_check_biorthogonal(cfg):
    bundle = resolve_model(cfg)
    return [_biorthogonality_section(bundle.require_family(),
                                     cfg.tolerances)]


def _run_frame_report(cfg):
    bundle = resolve_model(cfg)
    fam = bundle.require_family()
    return [_biorthogonality_section(fam, cfg.tolerances),
            _frame_section(fam, cfg.tolerances)]


def _run_bessel(cfg):
    bundle = resolve_model(cfg)
    return [_bessel_section(bundle.require_family(), cfg.seed,
                            cfg.tolerances)]


def _run_riesz_fischer(cfg):
    bundle = resolve_model(cfg)
    return [_riesz_fischer_section(bundle.require_family())]


def _run_strictness(cfg):
    bundle = resolve_model(cfg)
    return [_strictness_section(bundle, cfg)]


def _run_reconstruct(cfg):
    bundle = resolve_model(cfg)
    return [_reconstruct_section(bundle.require_family(), cfg)]


def _run_example(cfg):
    return _battery(resolve_model(cfg), cfg)


def _run_full_report(cfg):
    bundle = resolve_model(cfg)
    sections = _battery(bundle, cfg)
    if bundle.family is not None:
        sections.append(_frame_section(bundle.family, cfg.tolerances))
        sections.append(_riesz_fischer_section(bundle.family))
        sections.append(_reconstruct_section(bundle.family, cfg))
    return sections


RUNNERS = {
    "check-biorthogonal": _run_check_biorthogonal,
    "frame-report": _run_frame_report,
    "bessel": _run_bessel,
    "riesz-fischer": _run_riesz_fischer,
    "strictness": _run_strictness,
    "reconstruct": _run_reconstruct,
    "example": _run_example,
    "pseudo-hermitian": _pseudo_sections,
    "full-report": _run_full_report,
}


def run(cfg):
    """Execute one configured command and assemble its report."""
    start = time.perf_counter()
    sections = RUNNERS[cfg.command](cfg)
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


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = config_from_args(args)
        report = run(cfg)
        if cfg.out:
            save_report(report, cfg.out, cfg.fmt)
        else:
            text = render_json(report) if cfg.fmt == "json" \
                else render_csv(report)
            sys.stdout.write(text)
    except RieszLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
