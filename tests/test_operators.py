import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import kpwaves
from kpwaves import LatticeBox, dx_product, s_map, f_map
from kpwaves.operators import pair_table, segment_sum
from kpwaves.picard import _chunk_numbers, _groups, _nested_plan

from conftest import (coeff, delta, field_from_modes, is_real_symmetric,
                      mode_list)


def conv_oracle(box, u, v):
    """Dictionary convolution sum, written independently of the tables."""
    out = {}
    for k in mode_list(box):
        for l in mode_list(box):
            n = (k[0] + l[0], k[1] + l[1])
            if n in box:
                out[n] = out.get(n, 0.0) + coeff(box, u, k) * coeff(box, v, l)
    w = np.zeros(box.size, dtype=complex)
    for n, val in out.items():
        w[box.index(n)] = val
    return w


def f_map_oracle(box, a, b, c):
    """Direct triple sum over j + k + l = n with the inner pair in the box."""
    out = np.zeros(box.size, dtype=complex)
    for n in mode_list(box):
        acc = 0.0j
        for j in mode_list(box):
            for k in mode_list(box):
                m = (j[0] + k[0], j[1] + k[1])
                if m not in box:
                    continue
                l = (n[0] - m[0], n[1] - m[1])
                if l not in box:
                    continue
                d = delta(n, m, l)
                acc += (n[0] / 2.0) * (j[0] + k[0]) / (1j * d) \
                    * coeff(box, a, j) * coeff(box, b, k) * coeff(box, c, l)
        out[box.index(n)] = acc
    return out


class TestTables:
    def test_pair_table_is_complete(self, box22):
        pt = pair_table(box22)
        listed = set()
        for r in range(len(pt)):
            n = tuple(box22.modes[pt.out_idx[r]])
            k = tuple(box22.modes[pt.k_idx[r]])
            l = tuple(box22.modes[pt.l_idx[r]])
            assert (k[0] + l[0], k[1] + l[1]) == n
            assert pt.delta[r] == pytest.approx(delta(n, k, l), rel=1e-15)
            listed.add((n, k, l))
        expected = {((k[0] + l[0], k[1] + l[1]), k, l)
                    for k in mode_list(box22) for l in mode_list(box22)
                    if (k[0] + l[0], k[1] + l[1]) in box22}
        assert listed == expected

    def test_pair_table_cached(self, box22):
        assert pair_table(box22) is pair_table(LatticeBox(2, 2))

    def test_empty_box_tables(self):
        box = LatticeBox(1, 0)
        assert len(pair_table(box)) == 0
        plan = _nested_plan(box)
        assert _groups(box) == []
        assert all(_chunk_numbers(box, plan, *chunk) == []
                   for chunk in plan.chunks)

    def test_right_parts_fill_the_segments(self):
        # The box is closed under n -> -n, so (n, k) -> (-k, n) pairs the
        # splits n = k + l of a mode l with its own splits l = k + q: the
        # nested-split groups are the pair table's segments.
        for n1 in range(1, 9):
            for n2 in range(9):
                box = LatticeBox(n1, n2)
                pt = pair_table(box)
                assert np.array_equal(
                    np.bincount(pt.l_idx, minlength=box.size),
                    np.diff(pt.seg_starts)), box


def test_segment_sum_with_empty_segments():
    starts = np.array([0, 0, 2, 5, 5])
    vals = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    out = segment_sum(vals, starts)
    assert out.tolist() == [0.0, 3.0, 12.0, 0.0]


def test_segment_sum_batched():
    starts = np.array([0, 1, 3])
    vals = np.array([[1.0, 2.0, 3.0], [10.0, 20.0, 30.0]])
    out = segment_sum(vals, starts)
    assert out.tolist() == [[1.0, 5.0], [10.0, 50.0]]


def conv_brute(box, U, V):
    """Double sum over (k, l) on raw, possibly batched coefficient arrays."""
    out = np.zeros(np.broadcast_shapes(U.shape, V.shape), dtype=complex)
    for i, k in enumerate(mode_list(box)):
        for j, l in enumerate(mode_list(box)):
            n = (k[0] + l[0], k[1] + l[1])
            if n in box:
                out[..., box.index(n)] += U[..., i] * V[..., j]
    return out


# The convolution sum_{k+l=n} U_k V_l is taken over the pair table, inside
# dx_product as i n1 times it; these check that sum on raw arrays.
@pytest.mark.parametrize("shape", [(1, 0), (3, 0), (1, 3), (4, 1), (2, 5),
                                   (5, 2), (3, 3), (6, 6)])
def test_convolve_matches_double_sum(shape, rng):
    box = LatticeBox(*shape)
    U = rng.standard_normal((3, box.size)) + 1j * rng.standard_normal(
        (3, box.size))
    V = rng.standard_normal(box.size) + 1j * rng.standard_normal(box.size)
    got = dx_product(box, U, V)
    assert got.shape == U.shape
    np.testing.assert_allclose(got, 1j * box.n1 * conv_brute(box, U, V),
                               rtol=0, atol=1e-14 * box.size)
    np.testing.assert_allclose(dx_product(box, U, U),
                               1j * box.n1 * conv_brute(box, U, U),
                               rtol=0, atol=1e-14 * box.size)


def test_convolve_empty_batch(box22):
    U = np.zeros((0, box22.size), dtype=complex)
    assert dx_product(box22, U, U).shape == (0, box22.size)
    assert dx_product(box22, U, np.ones(box22.size)).shape \
        == (0, box22.size)


# The modules `import kpwaves.cli` loads; each handler imports the rest.
_CLI_MODULES = {"kpwaves", "kpwaves.cli", "kpwaves.lattice",
                "kpwaves.sampling"}


def _fresh_run(code, *args):
    """The last stdout line of code run in a new interpreter, as words,
    after it prints the kpwaves modules it loaded."""
    src = os.path.dirname(os.path.dirname(kpwaves.__file__))
    code += ("; print(*sorted(m for m in sys.modules "
             "if m.partition('.')[0] == 'kpwaves'))")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code, *args], env=env,
                         capture_output=True, text=True, check=True)
    return out.stdout.splitlines()[-1].split()


def test_cli_import_leaves_fft_unloaded():
    # Each loads on first use: numpy.fft when the integrator squares a
    # grid by FFT (boxes past 3x3), the thread pool when an ensemble runs
    # several batches on threads, json when a report is written as JSON.
    out = _fresh_run("import sys, kpwaves.cli; "
                     "print('numpy.fft' in sys.modules, "
                     "'concurrent.futures' in sys.modules, "
                     "'json' in sys.modules, end=' ')")
    assert out[:3] == ["False", "False", "False"]
    assert set(out[3:]) == _CLI_MODULES


@pytest.mark.parametrize("command, extra, layers, codes", [
    ("theory-curves", "", {"operators", "theory"}, (0,)),
    ("verify", "", {"operators", "picard"}, (0,)),
    ("box-limit", "law = two_point 0 1.4142135623730951 0.5\n",
     {"operators", "theory"}, (0,)),
    ("simulate", "", {"dynamics"}, (0,)),
    ("ensemble", "sample_count = 4\ndt = 0.05\n",
     {"operators", "dynamics", "ensemble", "theory"}, (0,)),
    # The scan and the growth fit; a scan this small may exit 1 as
    # noise-dominated.
    ("remainder-scan", "eps = 0.2 0.1 0.05\nsample_count = 4\n"
     "rotations = 1\ndt = 0.05\n",
     {"operators", "dynamics", "ensemble", "picard"}, (0, 1)),
], ids=["theory-curves", "verify", "box-limit", "simulate", "ensemble",
        "remainder-scan"])
def test_command_imports_only_its_layers(tmp_path, command, extra, layers,
                                         codes):
    # The closed forms run without the stepper, the Picard layer and the
    # estimators; verify runs without the stepper, the closed forms and the
    # estimators; the moment estimator runs without the Picard layer, and
    # the remainder scan without the closed forms.
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"command = {command}\nbox = 2 1\nt_grid = 0.5 1 0.25\n"
                   f"out = {tmp_path / 'report.csv'}\n" + extra)
    out = _fresh_run("import sys, kpwaves.cli; "
                     f"assert kpwaves.cli.main(sys.argv[1:]) in {codes}",
                     "--config", str(cfg))
    assert set(out) == _CLI_MODULES | {f"kpwaves.{m}" for m in layers}


def test_stepper_memory_model_has_one_owner():
    # The stepper's phase chunk, its squarer and the squarer's blocks and
    # fixed buffers enter a pre-flight only through dynamics._evolve_bytes:
    # no other module names them, so no other module keeps a copy of the
    # stepper's count.
    src = Path(kpwaves.__file__).parent
    for name in ("_PHASE_CHUNK", "_squarer", "_BLOCK_ROWS", "_GRID_BLOCKS",
                 "_DENSE_MAX"):
        owners = {f.name for f in src.glob("*.py") if name in f.read_text()}
        assert owners == {"dynamics.py"}, name


# The stepper's grid square and its constants.
_STEPPER_NAMES = {"_PHASE_CHUNK", "_BLOCK_ROWS", "_DENSE_MAX",
                  "_GRID_BLOCKS", "_smooth_length", "_fft_embedding",
                  "_dense_embedding", "_positive_rows", "_squarer"}


def _defined(tree):
    """Names a module binds at its top level."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def _imported(tree):
    """(module, name) of every name a module takes from the package, at
    any depth: `from .m import x` gives ("m", "x"), `from . import m`
    ("", "m"), and `import kpwaves.m` ("", "m")."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            package = node.level or node.module.split(".")[0] == "kpwaves"
            module = (node.module or "").removeprefix("kpwaves")
            for alias in node.names if package else ():
                yield module.lstrip("."), alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                head, _, rest = alias.name.partition(".")
                if head == "kpwaves" and rest:
                    yield "", rest


def test_module_boundaries():
    # Each decision has one module: the stepper owns its grid square, and
    # lattice owns the memory check beside ConfigError, so the squarer
    # never crosses into operators and operators never into dynamics.
    src = Path(kpwaves.__file__).parent
    trees = {f.stem: ast.parse(f.read_text()) for f in src.glob("*.py")}
    assert {"dynamics", "lattice", "operators"} <= set(trees)
    for owner, names in (("dynamics", _STEPPER_NAMES),
                         ("lattice", {"_check_memory", "_physical_memory"})):
        for name in names:
            definers = {m for m, tree in trees.items()
                        if name in _defined(tree)}
            assert definers == {owner}, name
    for module, tree in trees.items():
        if module == "dynamics":
            continue
        taken = {name for _, name in _imported(tree)}
        read = {node.attr for node in ast.walk(tree)
                if isinstance(node, ast.Attribute)}
        assert not (taken | read) & _STEPPER_NAMES, module
    assert not [(m, name) for m, name in _imported(trees["dynamics"])
                if "operators" in (m, name)]


def test_every_exported_name_resolves():
    # A name left in __all__ after its definition is gone fails only on
    # `import *`, or in the package on the name's first access.
    modules = [importlib.import_module(f"kpwaves.{m.name}")
               for m in pkgutil.iter_modules(kpwaves.__path__)]
    assert {m.__name__ for m in modules} >= {"kpwaves.cli", "kpwaves.lattice"}
    stale = [f"{mod.__name__}.{name}"
             for mod in [kpwaves] + modules
             for name in getattr(mod, "__all__", ())
             if not hasattr(mod, name)]
    assert all(hasattr(m, "__all__") for m in modules)
    assert stale == []


# The package names before they were resolved on first access.
_PACKAGE_NAMES = """
    LatticeBox omega hs_norm hs_weights apply_free_flow dx_product s_map
    f_map phi1 extract_d extract_w PicardBundle lambda_eps invert_lambda_eps
    NonContractionError MaxIterExceededError calibrate_dt evolve_coeffs
    NonFiniteError CalibrationError RandomLaw SpectrumProfile
    normalize_profile sample_u0 MomentReport estimate_moments ScanResult
    remainder_scan GrowthFit remainder_growth
    TheoryContext f2_diag f3 weighted_sum_pair weighted_sum_triple
    pair_majorant triple_majorant box_limit_f2
""".split()


def test_package_names_are_module_exports():
    # Each name of the package table is in its module's __all__, so a
    # deletion that leaves it behind there fails above as well, and it
    # resolves to the module's object.
    assert sorted(kpwaves.__all__) == sorted(_PACKAGE_NAMES)
    assert len(_PACKAGE_NAMES) == 38
    assert list(kpwaves._EXPORTS) == kpwaves.__all__
    for name, module_name in kpwaves._EXPORTS.items():
        module = importlib.import_module(f"kpwaves.{module_name}")
        assert name in module.__all__, (module_name, name)
        assert getattr(kpwaves, name) is getattr(module, name)
        assert name in dir(kpwaves)
    with pytest.raises(AttributeError, match="no_such_name"):
        kpwaves.no_such_name


def test_dx_product_definition(box22, make_field):
    u = make_field(box22)
    v = make_field(box22)
    got = dx_product(box22, u, v)
    want = 1j * box22.n1 * conv_oracle(box22, u, v)
    assert np.allclose(got, want, rtol=1e-13, atol=1e-13)


def test_dx_product_unit_pair_example(box22):
    u = field_from_modes(box22, {(1, 0): 1.0}, hermitian=True)
    w = dx_product(box22, u, u)
    assert coeff(box22, w, (2, 0)) == pytest.approx(2j, rel=1e-15)
    assert coeff(box22, w, (-2, 0)) == pytest.approx(-2j, rel=1e-15)


def test_s_map_unit_pair_example(box22):
    # the only active split at (2, 0) is (1,0)+(1,0) with phase gap -6
    u = field_from_modes(box22, {(1, 0): 1.0}, hermitian=True)
    w = s_map(box22, u, u)
    assert coeff(box22, w, (2, 0)) == pytest.approx(-1.0 / 6.0, rel=1e-15)
    assert coeff(box22, w, (-2, 0)) == pytest.approx(-1.0 / 6.0, rel=1e-15)


def test_s_map_against_sum(box22, make_field):
    u = make_field(box22)
    v = make_field(box22)
    got = s_map(box22, u, v)
    for n in ((1, 0), (2, 1), (-1, -2)):
        acc = 0.0j
        for k in mode_list(box22):
            l = (n[0] - k[0], n[1] - k[1])
            if l in box22:
                acc += ((n[0] / 2.0) * coeff(box22, u, k) * coeff(box22, v, l)
                        / delta(n, k, l))
        assert coeff(box22, got, n) == pytest.approx(acc, rel=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 31))
def test_s_map_bilinear_symmetric(seed):
    box = LatticeBox(2, 1)
    r = np.random.default_rng(seed)

    def rand():
        return r.standard_normal(box.size) + 1j * r.standard_normal(box.size)

    u, v, w = rand(), rand(), rand()
    alpha = complex(r.standard_normal(), r.standard_normal())
    sym = s_map(box, u, v) - s_map(box, v, u)
    assert np.abs(sym).max() < 1e-12
    lin = (s_map(box, u + alpha * w, v) - s_map(box, u, v)
           - alpha * s_map(box, w, v))
    assert np.abs(lin).max() < 1e-11


def test_operators_preserve_reality(box22, make_field):
    u = make_field(box22, hermitian=True)
    v = make_field(box22, hermitian=True)
    assert is_real_symmetric(box22, dx_product(box22, u, v), tol=1e-13)
    assert is_real_symmetric(box22, s_map(box22, u, v), tol=1e-13)
    assert is_real_symmetric(box22, f_map(box22, u, v, u), tol=1e-12)


def test_f_map_against_direct_sum(box21, make_field):
    a = make_field(box21)
    b = make_field(box21)
    c = make_field(box21)
    got = f_map(box21, a, b, c)
    want = f_map_oracle(box21, a, b, c)
    scale = np.abs(want).max()
    assert np.abs(got - want).max() <= 1e-13 * scale


def test_f_map_is_minus_s_of_dx(box22, make_field):
    a = make_field(box22)
    b = make_field(box22)
    c = make_field(box22)
    direct = f_map(box22, a, b, c)
    composed = s_map(box22, c, dx_product(box22, a, b)) * -1.0
    assert np.allclose(direct, composed, rtol=0, atol=1e-12)


def test_commutator_identity(box33, make_field):
    # generator of the free flow acting on the bilinear map
    om = 1j * box33.omega

    def lin(x):
        return om * x

    def s(x, y):
        return s_map(box33, x, y)

    for _ in range(5):
        u = make_field(box33)
        v = make_field(box33)
        lhs = lin(s(u, v)) - s(lin(u), v) - s(u, lin(v))
        rhs = dx_product(box33, u, v) * -0.5
        scale = max(1.0, np.abs(rhs).max())
        assert np.abs(lhs - rhs).max() <= 1e-12 * scale


def test_box_mismatch_raises(box22, box33, make_field):
    u = make_field(box22)
    v = make_field(box33)
    with pytest.raises(ValueError):
        s_map(box22, u, v)
    with pytest.raises(ValueError):
        dx_product(box22, u, v)


def test_mode_count_mismatch_raises(box22):
    # Every operand's last axis must hold the box's 20 modes, whatever
    # its leading axes; a right-sized operand beside it does not help.
    good = np.ones((2, box22.size), dtype=complex)
    for shape in [(3,), (4, 3), (2, 21), (20, 1), ()]:
        bad = np.ones(shape, dtype=complex)
        for pair in ((bad, good), (good, bad)):
            with pytest.raises(ValueError, match="20 modes"):
                s_map(box22, *pair)
            with pytest.raises(ValueError, match="20 modes"):
                dx_product(box22, *pair)
        for triple in ((bad, good, good), (good, bad, good),
                       (good, good, bad)):
            with pytest.raises(ValueError, match="20 modes"):
                f_map(box22, *triple)
