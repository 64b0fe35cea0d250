"""rieszlab benchmark: closed-loop CLI workloads, end to end and traced.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client drives ``rieszlab.cli.main(argv)`` in this process, the same
argparse -> run -> render path as the command line, and sends the next
request only when the previous report has returned.  Every request's
output is checked.  With ``--trace 0`` the last line of stdout carries
the end-to-end metrics; with ``--trace 1`` it carries the per-layer
metrics of a traced run, which wraps the package's public functions from
outside (see tracer.py).  The lines above it are the human-readable
record: environment, every metric with its unit, the latency tail and
the failed ratio.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import glob
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SCHEMA = os.path.join(ROOT, "docs", "report_schema.json")
OUT = os.path.join(HERE, "out")

sys.path.insert(0, HERE)
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# After import, OpenBLAS runs slowly for about a second of work on a
# small machine; the warm-up outlasts that before any timing starts.
WARMUP_S = 2.0
SETUP_REPEATS = 9
COLD_REPEATS = 3
CSV_HEADER = "section,kind,name,key,value"


# -- environment -------------------------------------------------------------

def _blas_threads():
    """Thread count of the bundled OpenBLAS as inherited; never changed."""
    import ctypes

    libdir = os.path.dirname(np.__file__) + ".libs"
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit():
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head):
        return None
    with open(head) as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    path = os.path.join(ROOT, ".git", ref[5:])
    if os.path.isfile(path):
        with open(path) as fh:
            return fh.read().strip()
    packed = os.path.join(ROOT, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed) as fh:
            for line in fh:
                sha, _, name = line.strip().partition(" ")
                if name == ref[5:]:
                    return sha
    return None


def environment(workload, seed):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload,
        "seed": seed,
        "commit": _git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "cores": len(os.sched_getaffinity(0)),
    }


# -- requests and their checks ----------------------------------------------

def call(cli, argv):
    """Run one request through ``cli.main``; return (latency, status,
    stdout, stderr).  A traceback counts as a failed request."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            status = cli.main(list(argv))
        except SystemExit as exc:
            status = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # noqa: BLE001 - the loop must keep running
            traceback.print_exc()
            status = 1
        latency = time.perf_counter() - start
    return latency, status, out.getvalue(), err.getvalue()


class Checker:
    """Output checks for every request.

    The first output of each distinct request is validated in full:
    JSON against the report schema, CSV by its header, and the verdict
    words against the request's pinned list.  Every later output of the
    same request must be byte-identical to that first one.
    """

    def __init__(self, schema_path):
        import jsonschema

        with open(schema_path) as fh:
            self.validator = jsonschema.Draft7Validator(json.load(fh))
        self.first = {}

    def check(self, req, status, out, err):
        """Return None for a good output, else the reason it failed."""
        if status != 0:
            return f"exit status {status}"
        if "error:" in err:
            return "error output: " + err.strip().splitlines()[-1]
        seen = self.first.get(req.argv)
        if seen is None:
            reason = self._validate(req, out)
            self.first[req.argv] = (out, reason)
            return reason
        first_out, reason = seen
        if out != first_out:
            return "output differs from the first output of this request"
        return reason

    def _validate(self, req, out):
        if req.fmt == "json":
            try:
                report = json.loads(out)
            except json.JSONDecodeError as exc:
                return f"not JSON: {exc}"
            error = next(iter(self.validator.iter_errors(report)), None)
            if error is not None:
                return f"schema: {error.message}"
            words = tuple(v["verdict"] for s in report["sections"]
                          for v in s["verdicts"])
        else:
            if out.split("\n", 1)[0] != CSV_HEADER:
                return "CSV report lacks the section,kind,name,key,value header"
            rows = list(csv.reader(io.StringIO(out)))[1:]
            words = tuple(r[4] for r in rows
                          if r[1] == "verdict" and r[3] == "verdict")
        if words != req.verdicts:
            return f"verdicts {words} differ from pinned {req.verdicts}"
        return None


class Phase:
    """Latencies, round times and failures of one measured phase."""

    def __init__(self):
        self.latencies = []
        self.by_request = {}          # position in the round -> latencies
        self.rounds = []
        self.failures = []
        self.bytes_out = 0
        self.first_round_calls = []   # (label, span call counts), traced

    @property
    def reports_per_s(self):
        # Requests per round over the median round time: the median keeps
        # a noisy neighbour's burst out of the throughput figure.
        per_round = len(self.latencies) / len(self.rounds)
        return per_round / statistics.median(self.rounds)

    @property
    def report_p50_s(self):
        # Median over the round's requests of each one's median latency.
        # A plain median of a round mixing a 0.2 s and a 0.6 s request
        # falls in the gap between the two and jumps from run to run.
        return statistics.median(statistics.median(v)
                                 for v in self.by_request.values())


def drive(cli, reqs, checker, seconds, tracer=None):
    """Send rounds of requests in a closed loop until `seconds` have passed;
    the round in flight at the deadline completes."""
    phase = Phase()
    start = time.perf_counter()
    while True:
        round_s = 0.0
        for position, req in enumerate(reqs):
            if tracer is not None:
                before = dict(tracer.calls) if not phase.rounds else None
                tracer.begin_request()
            latency, status, out, err = call(cli, req.argv)
            if tracer is not None:
                tracer.end_request()
                if before is not None:
                    phase.first_round_calls.append((req.label, {
                        s: c - before.get(s, 0)
                        for s, c in tracer.calls.items()}))
            round_s += latency
            phase.latencies.append(latency)
            phase.by_request.setdefault(position, []).append(latency)
            phase.bytes_out += len(out.encode())
            reason = checker.check(req, status, out, err)
            if reason is not None:
                phase.failures.append(f"{req.label}: {reason}")
        phase.rounds.append(round_s)
        if time.perf_counter() - start >= seconds:
            return phase


# -- fresh processes ---------------------------------------------------------

def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return env


def setup_seconds():
    """Median wall time of a fresh interpreter importing rieszlab.cli."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import rieszlab.cli"],
                       env=_child_env(), check=True, cwd=ROOT)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def first_report_seconds(argv):
    """Median cold first report over fresh processes."""
    times = []
    for _ in range(COLD_REPEATS):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "cold.py"), *argv],
            env=_child_env(), check=True, cwd=ROOT, capture_output=True,
            text=True)
        times.append(json.loads(proc.stdout)["first_report_s"])
    return statistics.median(times)


# -- metrics -----------------------------------------------------------------

def latency_tail(latencies):
    """Highest of a few percentiles with at least ten samples beyond it,
    by nearest rank; None when there are too few samples."""
    ordered = sorted(latencies)
    n = len(ordered)
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        rank = max(1, math.ceil(round(p * n / 100.0, 6)))
        if n - rank >= 10:
            return p, ordered[rank - 1]
    return None


def end_to_end(phase, setup_s):
    return {
        "reports_per_s": (phase.reports_per_s, "1/s"),
        "report_p50_s": (phase.report_p50_s, "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }


_CONFIG_SPANS = ("cli.build_parser", "cli.config_from_args",
                 "cli.load_config_file")
# Per-layer self times: metric -> the spans whose self time it sums.
SELF_TIMES = {
    "cli.config_s": _CONFIG_SPANS,
    "cli.resolve_model_s": ("cli.resolve_model",),
    "triplet.scale_matrix_s": ("triplet.WeightedTriplet.scale_matrix",),
    "triplet.seminorm_s": ("triplet.WeightedTriplet.seminorm",),
    "triplet.construct_s": ("triplet.WeightedTriplet.__post_init__",),
    "sequences.certificate_norm_s": ("sequences.certificate_norm",),
    "sequences.bessel_bound_s": ("sequences.bessel_bound",),
    "sequences.bessel_sampled_s": ("sequences.bessel_bound_sampled",),
    "sequences.schauder_probe_s": ("sequences.schauder_inequality_probe",),
    "sequences.riesz_fischer_s": ("sequences.riesz_fischer_check",),
    "sequences.partial_sum_s": ("sequences.partial_sum",),
    "sequences.level_gram_s": ("sequences.level_gram",),
    "riesz.make_riesz_basis_s": ("riesz.make_riesz_basis",),
    "riesz.strictness_s": ("riesz.strictness_report",
                           "riesz.strictness_constants"),
    "riesz.metric_check_s": ("riesz.metric_operator_check",),
    "riesz.realization_s": ("riesz.hilbert_triplet_realization",
                            "riesz.realized_grams"),
    "spaces.hermite_values_s": ("spaces.hermite_values",),
    "spaces.sobolev_multiplier_s": ("spaces.sobolev_multiplier",),
    "spaces.model_build_s": ("spaces.number_operator_model",
                             "spaces.schwartz_hermite_model",
                             "spaces.hermite_grid", "spaces.hermite_basis",
                             "spaces.sobolev_basis", "spaces.sobolev_triplet"),
    "hamiltonian.demo_pair_s": ("hamiltonian.demo_pair",
                                "hamiltonian.build_pair",
                                "hamiltonian.build_selfadjoint",
                                "hamiltonian.random_unitary"),
    "hamiltonian.spectrum_residual_s": ("hamiltonian.spectrum_residual",),
    "hamiltonian.weak_similarity_s": ("hamiltonian.weak_similarity_residual",),
    "reportio.load_matrix_s": ("reportio.load_complex_matrix",),
    "reportio.render_s": ("reportio.render_json", "reportio.render_csv",
                          "reportio.jsonify"),
    "reportio.digest_s": ("reportio.config_digest",),
    "kernel.svd_s": ("kernel.svd",),
    "kernel.eig_s": ("kernel.eigvals", "kernel.eigh"),
}
# Per-layer call counts: metric -> span.
CALLS = {
    "triplet.scale_matrix_calls": "triplet.WeightedTriplet.scale_matrix",
    "triplet.seminorm_calls": "triplet.WeightedTriplet.seminorm",
    "sequences.certificate_norm_calls": "sequences.certificate_norm",
    "sequences.partial_sum_calls": "sequences.partial_sum",
    "riesz.make_riesz_basis_calls": "riesz.make_riesz_basis",
    "riesz.strictness_report_calls": "riesz.strictness_report",
    "riesz.strictness_constants_calls": "riesz.strictness_constants",
    "spaces.hermite_values_calls": "spaces.hermite_values",
    "spaces.sobolev_multiplier_calls": "spaces.sobolev_multiplier",
    "hamiltonian.demo_pair_calls": "hamiltonian.demo_pair",
    "hamiltonian.weak_similarity_calls": "hamiltonian.weak_similarity_residual",
    "trends.fit_calls": "trends.loglog_slope",
    "kernel.svd_calls": "kernel.svd",
}


def per_layer(tracer, phase, first_report_s, untraced_rps):
    n = len(phase.latencies)
    metrics = {name: (sum(tracer.self_time[s] for s in spans) / n, "s")
               for name, spans in SELF_TIMES.items()}
    cli_self = sum(t for s, t in tracer.self_time.items()
                   if s.startswith("cli.") and s not in _CONFIG_SPANS
                   and s != "cli.resolve_model")
    metrics["cli.self_s"] = (cli_self / n, "s")
    metrics["cli.first_report_s"] = (first_report_s, "s")
    metrics.update({name: (tracer.calls[span] / n, "count")
                    for name, span in CALLS.items()})
    scale_calls = tracer.calls["triplet.WeightedTriplet.scale_matrix"]
    distinct = tracer.sums["triplet.scale_matrix_distinct"]
    metrics["triplet.scale_matrix_reuse_ratio"] = (
        1.0 - distinct / scale_calls if scale_calls else 0.0, "ratio")
    for name in ("sequences.certificate_max_dim", "kernel.svd_max_dim"):
        metrics[name] = (tracer.maxima[name], "count")
    metrics["kernel.svd_flops"] = (tracer.sums["kernel.svd_flops"] / n,
                                   "flop-computed")
    metrics["reportio.cells_parsed"] = (tracer.sums["reportio.cells_parsed"]
                                        / n, "count")
    metrics["reportio.bytes_out"] = (phase.bytes_out / n, "B")
    metrics["trace.overhead_reports_per_s"] = (
        phase.reports_per_s - untraced_rps, "1/s")
    return metrics


# -- command line ------------------------------------------------------------

def declared_metrics(trace):
    """Names the result line carries, as BENCHMARK.json declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def import_cli():
    """Import rieszlab.cli from this checkout's src/, or explain why not."""
    if not (os.path.isfile(os.path.join(SRC, "rieszlab", "cli.py"))
            and os.path.isfile(SCHEMA)):
        _fail(f"{ROOT} lacks src/rieszlab or docs/report_schema.json; "
              "run from a full checkout")
    sys.path.insert(0, SRC)
    from rieszlab import cli

    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        _fail(f"rieszlab was imported from {cli.__file__}, not from {SRC}")
    return cli


def _fail(message):
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(2)


def measure_end_to_end(cli, reqs, checker, seconds):
    """Return (metrics, phases, report lines) with tracing off."""
    setup_s = setup_seconds()
    drive(cli, reqs, checker, WARMUP_S)
    phase = drive(cli, reqs, checker, seconds)
    n = len(phase.latencies)
    tail = latency_tail(phase.latencies)
    if tail is None:
        line = (f"report_tail: fewer than 10 samples beyond p50 (n={n}); "
                f"max {max(phase.latencies):.6g} s")
    else:
        line = f"report_p{tail[0]:g}_s {tail[1]:.6g} s (n={n})"
    return end_to_end(phase, setup_s), [phase], [line]


def measure_per_layer(cli, reqs, checker, seconds, path, env):
    """Return (metrics, phases, report lines) of a traced run.

    Half of `seconds` measures the workload untraced, the other half
    traced, so that the overhead compares equal run lengths."""
    first_s = first_report_seconds(reqs[0].argv)
    drive(cli, reqs, checker, WARMUP_S)
    plain = drive(cli, reqs, checker, seconds / 2)
    tracer = Tracer()
    tracer.install()
    try:
        traced = drive(cli, reqs, checker, seconds / 2, tracer)
    finally:
        tracer.uninstall()
    tracer.write_spans(path, {"environment": env})
    lines = [f"counts[{label}] " + " ".join(
                 f"{name}={calls.get(span, 0)}"
                 for name, span in CALLS.items())
             for label, calls in traced.first_round_calls]
    lines.append(f"spans written to {os.path.relpath(path, ROOT)} "
                 f"({len(tracer.spans)} kept, {tracer.dropped} dropped)")
    metrics = per_layer(tracer, traced, first_s, plain.reports_per_s)
    return metrics, [plain, traced], lines


def main(argv=None):
    args = parse_args(argv)
    cli = import_cli()
    from workloads import write_inputs

    os.makedirs(OUT, exist_ok=True)
    env = environment(args.workload, args.seed)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        reqs = WORKLOADS[args.workload](args.seed, write_inputs(args.seed, tmp))
        checker = Checker(SCHEMA)
        if args.trace:
            path = os.path.join(
                OUT, f"spans-{args.workload}-seed{args.seed}.jsonl")
            metrics, phases, lines = measure_per_layer(
                cli, reqs, checker, args.seconds, path, env)
        else:
            metrics, phases, lines = measure_end_to_end(
                cli, reqs, checker, args.seconds)

    attempted = sum(len(p.latencies) for p in phases)
    failures = [f for p in phases for f in p.failures]
    print("environment " + json.dumps(env, sort_keys=True))
    print(f"workload {args.workload}: {len(reqs)} request(s) per round, "
          f"{sum(len(p.rounds) for p in phases)} measured rounds, "
          "closed loop, one client")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    for line in lines:
        print(line)
    print(f"failed_ratio {len(failures) / attempted:.6g} "
          f"({len(failures)}/{attempted})")
    for reason in sorted(set(failures))[:10]:
        print("failure " + reason)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name][0],
                           "unit": metrics[name][1]}
                    for name in declared_metrics(args.trace)},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
