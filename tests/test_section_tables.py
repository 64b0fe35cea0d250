"""The command tables name only sections that have a builder, every
builder is reachable from some command, and every builder keeps the
section contract: it returns (records, verdicts), a dict and a non-empty
list of verdicts."""
import numpy as np
import pytest

from rieszlab import cli, save_complex_matrix
from rieszlab.reportio import Verdict

from conftest import well_conditioned_transform


def test_tables_name_every_builder_and_nothing_else():
    named = set(cli.FULL_REPORT_EXTRA)
    for names in (*cli.BATTERIES.values(), *cli.COMMAND_SECTIONS.values()):
        named.update(names)
    assert named == set(cli.SECTIONS)


def test_every_command_and_example_has_a_table():
    assert set(cli.BATTERIES) == set(cli.EXAMPLES)
    assert set(cli.COMMAND_SECTIONS) | {"example", "full-report"} \
        == set(cli.COMMANDS)


FILE_COMMANDS = ("check-biorthogonal", "frame-report", "riesz-fischer",
                 "strictness", "reconstruct", "bessel")
RUNS = [pytest.param(["full-report", "--example", example, "--size", "256"],
                     id=f"full-report-{example}") for example in cli.EXAMPLES]
RUNS += [pytest.param(["pseudo-hermitian", "--dim", "16"],
                      id="pseudo-hermitian")]
RUNS += [pytest.param([command, "--transform"], id=f"{command}-file")
         for command in FILE_COMMANDS]


@pytest.mark.parametrize("argv", RUNS)
def test_builders_return_records_and_verdicts(tmp_path, monkeypatch, argv):
    if argv[-1] == "--transform":
        path = tmp_path / "transform.csv"
        save_complex_matrix(path, well_conditioned_transform(
            np.random.default_rng(5), 6))
        argv = argv + [str(path), "--weight-rule", "linear"]
    returned = {}

    def keeping(name, build):
        def builder(bundle, cfg):
            returned[name] = build(bundle, cfg)
            return returned[name]
        return builder

    for name, build in list(cli.SECTIONS.items()):
        monkeypatch.setitem(cli.SECTIONS, name, keeping(name, build))
    out = tmp_path / "report.json"
    assert cli.main(argv + ["--seed", "0", "--out", str(out),
                            "--no-timing"]) == 0
    assert returned
    for name, result in returned.items():
        assert isinstance(result, tuple) and len(result) == 2, name
        records, verdicts = result
        assert isinstance(records, dict), name
        assert isinstance(verdicts, list) and verdicts, name
        assert all(isinstance(v, Verdict) for v in verdicts), name
