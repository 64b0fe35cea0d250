"""LAPACK's SVD is called from three functions of the package only.

No linter runs in this project, so this stands in for a banned-call
rule: singular values go through `sequences.singular_values` and
inverses through `sequences.pseudo_inverse`, which take real diagonal
matrices in closed form.  A new direct call would skip that shortcut.
`riesz.hilbert_triplet_realization` needs the singular vectors of a
transform and keeps its own call.
"""
import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "rieszlab"

ALLOWED = {"sequences.singular_values", "sequences.pseudo_inverse",
           "riesz.hilbert_triplet_realization"}


def svd_sites(path):
    """`module.function` for every reference to an `svd` attribute or an
    imported `svd` name in the file (`module` alone at module level)."""
    tree = ast.parse(path.read_text(), filename=str(path))
    sites = set()

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = f"{path.stem}.{node.name}"
        if isinstance(node, ast.Attribute) and node.attr == "svd":
            sites.add(where)
        if isinstance(node, ast.ImportFrom) and \
                any(alias.name == "svd" for alias in node.names):
            sites.add(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(tree, path.stem)
    return sites


def test_svd_is_called_only_from_the_shared_kernels():
    sites = set().union(*(svd_sites(p) for p in PACKAGE.glob("*.py")))
    assert sites == ALLOWED


def test_the_check_sees_a_new_call_site(tmp_path):
    path = tmp_path / "extra.py"
    path.write_text("import numpy as np\n\n\n"
                    "def norm(a):\n    return np.linalg.svd(a)[1][0]\n")
    assert svd_sites(path) == {"extra.norm"}
