"""LAPACK's SVD is called from three functions of the package only, and
never on the way to the Lanczos Bessel check.

No linter runs in this project, so this stands in for a banned-call
rule: singular values go through `sequences.singular_values` and
inverses through `sequences.pseudo_inverse`, which take a `Diagonal`
in closed form.  A new direct call would skip that shortcut.
`riesz._realized` needs the singular vectors of a dense transform and
keeps its own call.  A matrix 2-norm, `norm(a, 2)` or
`norm(a, ord=2)`, is an SVD too and counts as a call.

`sequences.bessel_bound_lanczos` is held to the SVD certificate of the
Bessel bound, so neither it, nor the Lanczos kernel `_lanczos_top` it
shares with `hamiltonian.nonnormality`, nor a helper of their modules
that they call may name the certificate's kernels.  `nonnormality`
takes the commutator norm from that kernel's products alone, so it
reaches no dense eigensolver or SVD of the N x N commutator; the kernel's
`eigh` of its k x k tridiagonal stays allowed.

Diagonal structure is declared by the model builders as a `Diagonal`,
never rediscovered: no code of the package counts nonzeros or names the
retired `_real_diagonal` scan.  A `Diagonal` multiplies itself under `@`
and `.conj().T`, so no code names the retired dispatch helpers
`_product` and `_adjoint` either.  Expansions return plain coordinate
arrays, so no code names the retired wrapper `CoefVector`.  T's
continuity certificate is the memoised level-1 norm of its dual, so no
code names the retired square-map route `certificate_norm` and
`make_linear_map`.

A line grid is decided in one place, `spaces.hermite_grid`, for both
function-space examples: the CLI constructs no `LineGrid` and names
neither the sampler `hermite_values` nor the `aliasing_fraction` check.
The unitary DFT frame is accepted by name, so no code names the retired
runtime self-test `_fft_defect`.

A family's maps are scaled once per level, by the memo of
`SequenceFamily.scaled`: no other function passes `fam.family`,
`fam.dual` or `_dual_of(...)`, directly or through a local name, to a
`.scale(` call.  `riesz._realized` keeps its calls, because it scales a
basis's maps into the realized triplet, not the family's own.  Their
singular values are memoised too: only `SequenceFamily.sigma`, which
takes those of a tall map from its R factor, passes a held map or a
`.scaled(` map to `singular_values`.

The Sobolev family is built by the triplet's own scalings, and the
spectral multiplier `spaces.sobolev_multiplier` is only the reference
that the construction verdict compares it with: nothing that
`spaces.sobolev_model` reaches names the multiplier, and in `cli.py`
only `_sobolev_section` does, so no second construction route returns.

The real spectrum of a pseudo-Hermitian pair is certified through the
Hermitian similarity T H T^{-1}, so no code of the package names the
general non-Hermitian eigensolvers `eig` and `eigvals`; the Hermitian
`eigh` and `eigvalsh` stay allowed.
"""
import ast
import pathlib

import pytest

import rieszlab

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "rieszlab"

ALLOWED = {"sequences.singular_values", "sequences.pseudo_inverse",
           "riesz._realized"}

#: The certificate's kernels, which the Lanczos check must not reach.
CERTIFICATE = {"singular_values", "pseudo_inverse", "dual_level_norm",
               "bessel_bound", "svd", "sigma"}


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


def function_sites(path, hit):
    """`module.function` for every function of the file that holds a node
    for which `hit(node)` is true (`module` alone at module level)."""
    tree = ast.parse(path.read_text(), filename=str(path))
    sites = set()

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = f"{path.stem}.{node.name}"
        if hit(node):
            sites.add(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(tree, path.stem)
    return sites


def svd_sites(path):
    """`function_sites` of every reference to an `svd` attribute, an
    imported `svd` name or a `norm` of order 2 in the file."""
    return function_sites(path, lambda node: (
        isinstance(node, ast.Attribute) and node.attr == "svd"
        or spectral_norm(node)
        or isinstance(node, ast.ImportFrom)
        and any(alias.name == "svd" for alias in node.names)))


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


def reached_names(path, function):
    """Every name and attribute that `function` in the file refers to,
    following the module-level functions of the same file it names."""
    tree = ast.parse(path.read_text(), filename=str(path))
    defs = {node.name: node for node in tree.body
            if isinstance(node, ast.FunctionDef)}
    names, todo = set(), [function]
    while todo:
        for node in ast.walk(defs[todo.pop()]):
            name = node.id if isinstance(node, ast.Name) else \
                getattr(node, "attr", None)
            if name is not None and name not in names:
                names.add(name)
                if name in defs:
                    todo.append(name)
    return names


def lanczos_reach(path, function):
    """`reached_names` of the function, plus those of the shared Lanczos
    kernel of `sequences` when the function names it."""
    reached = reached_names(path, function)
    assert "_lanczos_top" in reached
    return reached | reached_names(PACKAGE / "sequences.py", "_lanczos_top")


def test_lanczos_check_reaches_no_certificate_kernel():
    bessel = lanczos_reach(PACKAGE / "sequences.py", "bessel_bound_lanczos")
    commutator = lanczos_reach(PACKAGE / "hamiltonian.py", "nonnormality")
    assert "_check_level" in bessel
    assert not (bessel | commutator) & CERTIFICATE


#: Dense eigensolvers and SVDs, which would see the whole commutator.
DENSE_SOLVERS = {"eigvalsh", "eigvals", "eig", "svd", "singular_values"}


def test_nonnormality_reaches_no_dense_eigensolver():
    reached = lanczos_reach(PACKAGE / "hamiltonian.py", "nonnormality")
    assert "eigh" in reached and not reached & DENSE_SOLVERS


def test_the_check_sees_a_dense_eigensolver(tmp_path):
    path = tmp_path / "extra.py"
    path.write_text("import numpy as np\n\n\n"
                    "def _top(c):\n    return np.linalg.eigvalsh(c)[-1]\n\n\n"
                    "def _ritz(t):\n    return np.linalg.eigh(t)[0][-1]\n\n\n"
                    "def norm(a):\n"
                    "    c = a @ a.conj().T - a.conj().T @ a\n"
                    "    return _top(c) + _ritz(c[:2, :2])\n")
    assert reached_names(path, "norm") & DENSE_SOLVERS == {"eigvalsh"}


def test_the_check_follows_helpers_of_the_module(tmp_path):
    path = tmp_path / "extra.py"
    path.write_text("import numpy as np\n\n\n"
                    "def _top(a):\n    return np.linalg.svd(a)[1][0]\n\n\n"
                    "def kernel(fam, j):\n"
                    "    return _top(fam.family) + dual_level_norm(fam, j)\n")
    assert reached_names(path, "kernel") & CERTIFICATE == \
        {"svd", "dual_level_norm"}


def held_map(node, aliases):
    """Whether `node` is a map a family holds: a `family` or `dual`
    attribute, a `_dual_of` call, a name in `aliases`, or `asarray` of
    one of these."""
    if isinstance(node, ast.Call) and node.args and \
            getattr(node.func, "attr", None) == "asarray":
        node = node.args[0]
    return (isinstance(node, ast.Attribute) and node.attr in ("family", "dual")
            or isinstance(node, ast.Call)
            and getattr(node.func, "id", None) == "_dual_of"
            or isinstance(node, ast.Name) and node.id in aliases)


def scaled_map(node, aliases):
    """`held_map`, or a `.scaled(` call or `asarray` of one."""
    if isinstance(node, ast.Call) and node.args and \
            getattr(node.func, "attr", None) == "asarray":
        node = node.args[0]
    return held_map(node, aliases) or isinstance(node, ast.Call) and \
        getattr(node.func, "attr", None) == "scaled"


def passing_sites(path, callee, passed, exempt=()):
    """`module.function` (`module.Class.method` for a method) for every
    function of the file, those named in `exempt` aside, that passes a
    node for which `passed(node, aliases)` is true to a call of `callee`;
    `aliases` are the local names bound to such a node."""
    tree = ast.parse(path.read_text(), filename=str(path))
    functions = [(node.name, node) for node in tree.body
                 if isinstance(node, ast.FunctionDef)]
    functions += [(f"{node.name}.{item.name}", item) for node in tree.body
                  if isinstance(node, ast.ClassDef) for item in node.body
                  if isinstance(item, ast.FunctionDef)]
    sites = set()
    for name, function in functions:
        if name.split(".")[0] in exempt:
            continue
        nodes = list(ast.walk(function))
        aliases = {target.id for node in nodes if isinstance(node, ast.Assign)
                   and passed(node.value, ()) for target in node.targets
                   if isinstance(target, ast.Name)}
        if any(isinstance(node, ast.Call)
               and callee in (getattr(node.func, "attr", None),
                              getattr(node.func, "id", None))
               and any(passed(arg, aliases) for arg in node.args)
               for node in nodes):
            sites.add(f"{path.stem}.{name}")
    return sites


def held_scale_sites(path):
    """`passing_sites` of a held map to a `.scale(` call, methods of
    `SequenceFamily` aside."""
    return passing_sites(path, "scale", held_map, exempt={"SequenceFamily"})


def test_only_the_memo_scales_a_family():
    sites = set().union(*(held_scale_sites(p) for p in PACKAGE.glob("*.py")))
    assert sites == {"riesz._realized"}


def test_the_check_sees_a_scaled_family(tmp_path):
    path = tmp_path / "extra.py"
    path.write_text("import numpy as np\n\n\n"
                    "class SequenceFamily:\n"
                    "    def scaled(self, j):\n"
                    "        return self.triplet.scale(j, self.family)\n\n\n"
                    "def gram(fam, j):\n"
                    "    x = fam.triplet.scale(j, fam.family)\n"
                    "    return x.conj().T @ x\n\n\n"
                    "def norm(fam, j):\n"
                    "    z = np.asarray(_dual_of(fam))\n"
                    "    return fam.triplet.scale(-j, z)\n\n\n"
                    "def dense(fam, j):\n"
                    "    return fam.triplet.scale(j, np.asarray(fam.dual))\n\n\n"
                    "def fine(fam, j, x):\n"
                    "    return fam.triplet.scale(j, x), fam.scaled(j)\n")
    assert held_scale_sites(path) == {"extra.gram", "extra.norm",
                                      "extra.dense"}


def singular_value_sites(path):
    """`passing_sites` of a held or `.scaled(` map to `singular_values`."""
    return passing_sites(path, "singular_values", scaled_map)


def test_only_the_memo_takes_singular_values_of_a_family():
    sites = set().union(*(singular_value_sites(p)
                          for p in PACKAGE.glob("*.py")))
    assert sites == {"sequences.SequenceFamily.sigma"}


def test_the_check_sees_singular_values_of_a_family(tmp_path):
    path = tmp_path / "extra.py"
    path.write_text("import numpy as np\n\n\n"
                    "class SequenceFamily:\n"
                    "    def sigma(self, j):\n"
                    "        x = self.scaled(j)\n"
                    "        return singular_values(x)\n\n\n"
                    "def top(fam, j):\n"
                    "    return singular_values(fam.scaled(j))[0]\n\n\n"
                    "def dual_top(fam):\n"
                    "    z = _dual_of(fam)\n"
                    "    return sequences.singular_values(z)[0]\n\n\n"
                    "def dense(fam, j):\n"
                    "    s = np.asarray(fam.scaled(-j, 'dual'))\n"
                    "    return singular_values(s), "
                    "singular_values(fam.dual)\n\n\n"
                    "def fine(fam, prod):\n"
                    "    return singular_values(prod), fam.sigma(1)\n")
    assert singular_value_sites(path) == {
        "extra.SequenceFamily.sigma", "extra.top", "extra.dual_top",
        "extra.dense"}


#: Names no code of the package may name, by what they were retired for.
RETIRED = {
    # A structure scan, which a declared Diagonal makes unneeded.
    "structure-scan": {"count_nonzero", "_real_diagonal"},
    # Product and adjoint dispatch, which `Diagonal.__matmul__` and
    # `Diagonal.conj` replace.
    "dispatch-helper": {"_product", "_adjoint"},
    # The coefficient wrapper expansions returned before they returned
    # arrays.
    "coefficient-wrapper": {"CoefVector"},
    # The runtime self-test of numpy's FFT normalization.
    "fft-self-test": {"_fft_defect"},
    # The general non-Hermitian eigensolvers.
    "general-eigensolver": {"eig", "eigvals"},
    # The square-map certificate route, which the family memo replaces:
    # T's continuity certificate is its dual's level-1 norm.
    "square-certificate": {"certificate_norm", "make_linear_map"},
    # Library API that no command reached: the `biorthogonality` section
    # makes the taint comparison itself; no section forms the adjoint
    # partial sum or the synthesis Z a; the dual norm is the length of
    # `scale(-j, phi)`; dense frames come from a realization, not from a
    # graph norm; and the sampled-function wrapper and its CSV writer
    # served a deleted script only.
    "test-only-api": {"is_tainted", "partial_sum_adjoint", "synthesis",
                      "dual_norm", "graph_norm_triplet", "SampledFunction",
                      "save_function_csv"},
}

#: Exported names that no module of the package names apart from their
#: own definition, each with the reason it stays public.
LIBRARY_API = {
    "coefficient_seminorm": "acceptance criterion 2",
    "bessel_bound_sampled": "acceptance criterion 3",
    "hilbert_triplet_realization": "acceptance criterion 5",
    "realized_grams": "acceptance criterion 5",
    "sobolev_basis": "acceptance criterion 6",
    "range_membership": "acceptance criterion 9",
    "save_complex_matrix": "writes the format `load_complex_matrix` reads",
}

#: The sampler and the check that only `spaces.hermite_grid` runs for a
#: report.
GRID_DECISION = {"hermite_values", "aliasing_fraction"}


def named_sites(path):
    """(name, `module:line`, defines) for every name, attribute, defined
    function or class and imported name of the file; `defines` marks a
    `def` or `class` of the name."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names, defines = [node.name], True
        elif isinstance(node, (ast.Name, ast.Attribute)):
            names, defines = [getattr(node, "id", None) or node.attr], False
        elif isinstance(node, ast.ImportFrom):
            names, defines = [alias.name for alias in node.names], False
        else:
            continue
        found += [(name, f"{path.stem}:{node.lineno}", defines)
                  for name in names]
    return found


def name_sites(path, names):
    """`module:line` for every name, attribute, defined function or class
    or imported name of the file that is in `names`."""
    return {site for name, site, _ in named_sites(path) if name in names}


def package_sites(names):
    return set().union(*(name_sites(p, names)
                         for p in PACKAGE.glob("*.py")))


@pytest.mark.parametrize("kind", sorted(RETIRED))
def test_no_code_names_a_retired_name(kind):
    assert package_sites(RETIRED[kind]) == set()


def unreached_names(names, paths):
    """The names that no file of `paths` names, by `named_sites`, other
    than in a `def` or `class` of that name."""
    used = {name for path in paths
            for name, _, defines in named_sites(path) if not defines}
    return set(names) - used


def test_every_public_name_is_reached_or_library_api():
    paths = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    assert unreached_names(rieszlab.__all__, paths) == set(LIBRARY_API)


def test_the_check_sees_an_unreached_name(tmp_path):
    path = tmp_path / "extra.py"
    path.write_text("def used(x):\n    return x\n\n\n"
                    "def unused(x):\n    return used(x)\n\n\n"
                    "class Kept:\n    pass\n\n\n"
                    "def make():\n    return Kept()\n")
    assert unreached_names({"used", "unused", "Kept", "make", "absent"},
                           [path]) == {"unused", "make", "absent"}


def test_the_check_sees_a_structure_scan(tmp_path):
    path = tmp_path / "extra.py"
    path.write_text("import numpy as np\nfrom numpy import count_nonzero\n"
                    "from .sequences import _real_diagonal\n\n\n"
                    "def scan(a):\n"
                    "    return np.count_nonzero(a) + count_nonzero(a)\n\n\n"
                    "def old(seq, a):\n"
                    "    return seq._real_diagonal(a)\n\n\n"
                    "def fine(a):\n    return np.nonzero(a)\n")
    assert name_sites(path, RETIRED["structure-scan"]) == {
        f"extra:{line}" for line in (2, 3, 7, 11)}


def test_the_check_sees_a_dispatch_helper(tmp_path):
    path = tmp_path / "extra.py"
    path.write_text("from .sequences import _adjoint\n\n\n"
                    "def _product(a, b):\n    return a @ b\n\n\n"
                    "def gram(seq, x):\n"
                    "    return _product(_adjoint(x), seq._product(x, x))\n\n\n"
                    "def fine(x):\n    return x.conj().T @ x\n")
    assert name_sites(path, RETIRED["dispatch-helper"]) == {
        "extra:1", "extra:4", "extra:9"}


def test_the_check_sees_a_coefficient_wrapper(tmp_path):
    path = tmp_path / "extra.py"
    path.write_text("from . import triplet\nfrom .triplet import CoefVector\n"
                    "\n\nclass CoefVector:\n    pass\n\n\n"
                    "def wrap(x):\n"
                    "    return CoefVector(x), triplet.CoefVector(x)\n\n\n"
                    "def fine(x):\n    return x.coords\n")
    assert name_sites(path, RETIRED["coefficient-wrapper"]) == {
        "extra:2", "extra:5", "extra:10"}


def test_the_check_sees_an_fft_self_test(tmp_path):
    path = tmp_path / "extra.py"
    path.write_text("from .triplet import _fft_defect\n\n\n"
                    "def _fft_defect(n):\n    return 0.0\n\n\n"
                    "def check(tri):\n"
                    "    return _fft_defect(tri.dim)\n\n\n"
                    "def fine(x):\n    return x\n")
    assert name_sites(path, RETIRED["fft-self-test"]) == {
        "extra:1", "extra:4", "extra:9"}


def test_the_check_sees_a_general_eigensolver(tmp_path):
    path = tmp_path / "extra.py"
    path.write_text("import numpy as np\nfrom numpy.linalg import eig\n\n\n"
                    "def spectrum(a):\n"
                    "    return np.linalg.eigvals(a) + eig(a)[0]\n\n\n"
                    "def hermitian(a):\n"
                    "    return np.linalg.eigvalsh(a) + np.linalg.eigh(a)[0]\n")
    assert name_sites(path, RETIRED["general-eigensolver"]) == {
        "extra:2", "extra:6"}


def test_the_check_sees_a_square_certificate(tmp_path):
    path = tmp_path / "extra.py"
    path.write_text("from . import sequences\n"
                    "from .sequences import make_linear_map\n\n\n"
                    "def certificate_norm(a, tri, fr, to):\n"
                    "    return 0.0\n\n\n"
                    "def construction(basis):\n"
                    "    return make_linear_map(basis.transform, tri)\n\n\n"
                    "def norm(t, tri):\n"
                    "    return sequences.certificate_norm(t, tri, 1, 0)\n\n\n"
                    "def fine(basis):\n"
                    "    return dual_level_norm(basis.fam, 1)\n")
    assert name_sites(path, RETIRED["square-certificate"]) == {
        f"extra:{line}" for line in (2, 5, 10, 14)}


def grid_sites(path):
    """`module:line` for every `LineGrid` construction and every name of
    `GRID_DECISION` in the file."""
    tree = ast.parse(path.read_text(), filename=str(path))
    built = {f"{path.stem}:{node.lineno}" for node in ast.walk(tree)
             if isinstance(node, ast.Call)
             and (getattr(node.func, "id", None)
                  or getattr(node.func, "attr", None)) == "LineGrid"}
    return built | name_sites(path, GRID_DECISION)


def test_the_cli_decides_no_grid():
    assert grid_sites(PACKAGE / "cli.py") == set()


def test_the_check_sees_a_grid_decision(tmp_path):
    path = tmp_path / "extra.py"
    path.write_text("from . import spaces\nfrom .spaces import LineGrid\n"
                    "from .spaces import hermite_values\n\n\n"
                    "def grid(cfg):\n"
                    "    return LineGrid(cfg.half_width, cfg.size)\n\n\n"
                    "def alias(grid, v):\n"
                    "    g = spaces.LineGrid(1.0, 8)\n"
                    "    return spaces.aliasing_fraction(grid, v), g\n\n\n"
                    "def fine(grid: LineGrid):\n    return grid.points\n")
    assert grid_sites(path) == {f"extra:{line}" for line in (3, 7, 11, 12)}


#: The spectral reference of the Sobolev construction.
MULTIPLIER = {"sobolev_multiplier"}


def multiplier_sites(path):
    """`function_sites` of every name or attribute `sobolev_multiplier` in
    the file; importing it is not a reference."""
    return function_sites(path, lambda node: (
        node.id if isinstance(node, ast.Name)
        else getattr(node, "attr", None)) in MULTIPLIER)


def test_the_sobolev_model_is_built_without_the_multiplier():
    reached = reached_names(PACKAGE / "spaces.py", "sobolev_model")
    assert "sobolev_triplet" in reached and not reached & MULTIPLIER
    assert multiplier_sites(PACKAGE / "cli.py") == {"cli._sobolev_section"}


def test_the_check_sees_a_second_multiplier_route(tmp_path):
    path = tmp_path / "extra.py"
    path.write_text("from . import spaces\n"
                    "from .spaces import sobolev_multiplier\n\n"
                    "ORDER = sobolev_multiplier\n\n\n"
                    "def _low(grid, phis):\n"
                    "    return sobolev_multiplier(grid, -1.0, phis)\n\n\n"
                    "def model(grid, phis):\n"
                    "    return _low(grid, phis)\n\n\n"
                    "def section(grid, phis):\n"
                    "    return spaces.sobolev_multiplier(grid, 1.0,"
                    " phis)\n\n\n"
                    "def fine(tri, phis):\n    return tri.scale(-1, phis)\n")
    assert multiplier_sites(path) == {"extra", "extra._low", "extra.section"}
    assert reached_names(path, "model") & MULTIPLIER == MULTIPLIER
