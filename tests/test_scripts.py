"""The example scripts run against the package API at small sizes."""
import importlib.util
import pathlib
import sys

import pytest

from rieszlab import demo_pair

from reference import commutator_norm

SCRIPTS = pathlib.Path(__file__).resolve().parents[1] / "scripts"


def run_script(name, argv, monkeypatch, capsys):
    """Call `scripts/<name>.py`'s main() with `argv`; return its lines."""
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(sys, "argv", [f"{name}.py", *argv])
    module.main()
    return capsys.readouterr().out.splitlines()


def value_after(lines, prefix):
    """The number that follows `prefix` on the line starting with it."""
    line = next(line for line in lines if line.startswith(prefix))
    return float(line[len(prefix):].split()[0])


def test_strictness_ladder(monkeypatch, capsys):
    lines = run_script("strictness_ladder", ["--ladder", "8,16,32,64"],
                       monkeypatch, capsys)
    assert "levels = 1: verdict strict" in lines
    assert "levels = 2: verdict non-strict" in lines
    assert "  upper level 1: (1.0, 1.0, 1.0, 1.0) (slope 0.000)" in lines
    assert lines[-2] == ("  upper level 2: (64.0, 256.0, 1024.0, 4096.0) "
                         "(slope 2.000)")


def test_pseudo_hermitian_demo(monkeypatch, capsys):
    lines = run_script("pseudo_hermitian_demo",
                       ["--dim", "8", "--pairs", "5"], monkeypatch, capsys)
    assert value_after(lines, "eigen residual:") <= 1e-10
    assert value_after(lines, "spectrum residual:") <= 1e-8
    assert value_after(lines, "weak similarity, worst of 5 pairs:") <= 1e-10
    # The printed non-normality is the dense eigensolver's, to the digits
    # shown.
    reference = commutator_norm(demo_pair(8, psi_seed=7).hamiltonian)
    assert value_after(lines, "non-normality:") == pytest.approx(
        float(f"{reference:.3e}"), rel=1e-12, abs=0)
    assert "over ladder (8, 16, 32, 64): (8.0, 16.0, 32.0, 64.0)" in lines[4]
    assert lines[-1] == "trend: growing (slope 1.000)"


def test_sobolev_roundtrip(monkeypatch, capsys, tmp_path):
    dump = tmp_path / "xi0.csv"
    lines = run_script("sobolev_roundtrip",
                       ["--points", "256", "--count", "4",
                        "--dump", str(dump)], monkeypatch, capsys)
    assert value_after(lines, "hermite quadrature Gram defect:") <= 1e-8
    assert value_after(lines, "modified level-1 Gram defect:") <= 1e-8
    assert value_after(lines, "plain Gram largest entry off 1:") > 0.1
    assert lines[-1] == f"wrote first family column to {dump}"
    assert len(dump.read_text().splitlines()) == 1 + 256
