"""LAPACK's SVD is called from three functions of the package only.

No linter runs in this project, so this stands in for a banned-call
rule: singular values go through `sequences.singular_values` and
inverses through `sequences.pseudo_inverse`, which take real diagonal
matrices in closed form.  A new direct call would skip that shortcut.
`riesz.hilbert_triplet_realization` needs the singular vectors of a
transform and keeps its own call.  A matrix 2-norm, `norm(a, 2)` or
`norm(a, ord=2)`, is an SVD too and counts as a call.
"""
import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "rieszlab"

ALLOWED = {"sequences.singular_values", "sequences.pseudo_inverse",
           "riesz.hilbert_triplet_realization"}


def spectral_norm(node):
    """Whether `node` calls a `norm` with order 2, positional or keyword."""
    if not isinstance(node, ast.Call):
        return False
    name = node.func.attr if isinstance(node.func, ast.Attribute) \
        else getattr(node.func, "id", None)
    orders = node.args[1:2] + [k.value for k in node.keywords
                               if k.arg == "ord"]
    return name == "norm" and any(
        isinstance(o, ast.Constant) and o.value == 2 for o in orders)


def svd_sites(path):
    """`module.function` for every reference to an `svd` attribute, an
    imported `svd` name or a `norm` of order 2 in the file (`module` alone
    at module level)."""
    tree = ast.parse(path.read_text(), filename=str(path))
    sites = set()

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = f"{path.stem}.{node.name}"
        if isinstance(node, ast.Attribute) and node.attr == "svd" or \
                spectral_norm(node):
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


def test_the_check_sees_a_spectral_norm(tmp_path):
    path = tmp_path / "extra.py"
    path.write_text("import numpy as np\nfrom numpy.linalg import norm\n\n\n"
                    "def top(a):\n    return np.linalg.norm(a, 2)\n\n\n"
                    "def top_kw(a):\n    return norm(a, ord=2)\n\n\n"
                    "def length(v):\n"
                    "    return np.linalg.norm(v) + norm(v, axis=0)[0]\n")
    assert svd_sites(path) == {"extra.top", "extra.top_kw"}
