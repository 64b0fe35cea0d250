"""Every named tolerance of the command line is read by it.

`--tolerance key=value` accepts every key of `cli.DEFAULT_TOLERANCES`,
validates it and hashes it into the report's `config_hash`, so a key no
section reads would change the digest and nothing else.  The CLI reads
tolerances as `tol["key"]` (the sections' alias of `cfg.tolerances`) or
as `cfg.tolerances["key"]`; this check finds those reads in `cli.py`.

A default the command line shares with a library function has one home,
a module constant next to its kernel, which both the CLI table and the
function's signature read; `SHARED_DEFAULTS` lists each such pair.
"""
import ast
import inspect
import pathlib

import pytest

import rieszlab
from rieszlab.cli import DEFAULT_TOLERANCES, PSEUDO_DEFAULTS, RunConfig

CLI = pathlib.Path(__file__).resolve().parents[1] / "src" / "rieszlab" / "cli.py"


def _is_tolerance_table(node):
    """Whether `node` is the name `tol` or the attribute `cfg.tolerances`."""
    if isinstance(node, ast.Name):
        return node.id == "tol"
    return isinstance(node, ast.Attribute) and node.attr == "tolerances" \
        and isinstance(node.value, ast.Name) and node.value.id == "cfg"


def unread_tolerances(path):
    """Keys of the module-level `DEFAULT_TOLERANCES` dict that no
    `tol["key"]` or `cfg.tolerances["key"]` subscript in the file reads."""
    tree = ast.parse(path.read_text(), filename=str(path))
    declared = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "DEFAULT_TOLERANCES"
                for t in node.targets):
            declared = {k.value for k in node.value.keys}
    read = {node.slice.value for node in ast.walk(tree)
            if isinstance(node, ast.Subscript)
            and _is_tolerance_table(node.value)
            and isinstance(node.slice, ast.Constant)}
    return declared - read


def test_every_tolerance_key_is_read():
    assert unread_tolerances(CLI) == set()


def test_the_check_sees_an_unread_key(tmp_path):
    path = tmp_path / "cli.py"
    path.write_text(
        'DEFAULT_TOLERANCES = {"gram": 1e-8, "support": 1e-12, "eigen": 1}\n'
        '\n\n'
        'def section(cfg):\n'
        '    tol = cfg.tolerances\n'
        '    other = {"support": 1.0}\n'
        '    return tol["gram"], cfg.tolerances["eigen"], other["support"]\n')
    assert unread_tolerances(path) == {"support"}


#: CLI default -> (its value, library function, parameter, the constant
#: both read, as "module.NAME").
SHARED_DEFAULTS = {
    "positivity": (DEFAULT_TOLERANCES["positivity"],
                   rieszlab.metric_operator_check, "positivity_tol",
                   "riesz.POSITIVITY_TOL"),
    "gram": (DEFAULT_TOLERANCES["gram"], rieszlab.hilbert_triplet_realization,
             "gram_tol", "riesz.GRAM_TOL"),
    "equality": (DEFAULT_TOLERANCES["equality"], rieszlab.nonnormality,
                 "tol", "hamiltonian.EQUALITY_TOL"),
    "psi_seed": (PSEUDO_DEFAULTS["psi_seed"], rieszlab.demo_pair,
                 "psi_seed", "hamiltonian.DEFAULT_PSI_SEED"),
    "support": (DEFAULT_TOLERANCES["support"], rieszlab.hermite_grid,
                "support_tol", "spaces.SUPPORT_TOL"),
    "aliasing": (DEFAULT_TOLERANCES["aliasing"], rieszlab.hermite_grid,
                 "aliasing_tol", "spaces.ALIASING_TOL"),
    "ladder": (RunConfig("strictness").ladder, rieszlab.number_operator_model,
               "ladder", "spaces.DEFAULT_LADDER"),
}


@pytest.mark.parametrize("name", sorted(SHARED_DEFAULTS))
def test_cli_default_is_the_library_default(name):
    value, function, parameter, constant = SHARED_DEFAULTS[name]
    module, attr = constant.split(".")
    home = getattr(getattr(rieszlab, module), attr)
    default = inspect.signature(function).parameters[parameter].default
    assert value is home and default is home
