"""The oracle module: vectorised L-pattern helpers and its place in the import graph."""

import ast
from pathlib import Path

import numpy as np
import pytest

import nopanet
from nopanet.oracles import is_l2_matrix, random_l2_matrix
from nopanet.static_limit import R

PRODUCTION_MODULES = ("closed_form", "static_limit", "dynamics", "entanglement", "network", "linalg")


def loop_l2_matrix(n, rng, max_cond=None):
    """The block-by-block construction that ``random_l2_matrix`` replaced."""
    nb = 2 * n
    while True:
        e = np.empty((nb, nb))
        e[:, :n] = rng.uniform(-1.0, 1.0, size=(nb, n))
        for j in range(n, nb):
            for i in range(nb):
                e[i, j] = e[nb - 1 - i, nb - 1 - j]
        a = np.zeros((2 * nb, 2 * nb))
        for i in range(nb):
            for j in range(nb):
                pattern = np.eye(2) if (i + j) % 2 == 0 else R
                a[2 * i : 2 * i + 2, 2 * j : 2 * j + 2] = e[i, j] * pattern
        if max_cond is None or np.linalg.cond(a) < max_cond:
            return a


@pytest.mark.parametrize("max_cond", [None, 1e6, 10.0])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_random_l2_matrix_matches_loop_construction(n, max_cond):
    # max_cond = 10 forces redraws, so the rejection loop is pinned as well
    fast, ref = np.random.default_rng(71 + n), np.random.default_rng(71 + n)
    for _ in range(5):
        a, b = random_l2_matrix(n, fast, max_cond), loop_l2_matrix(n, ref, max_cond)
        assert a.shape == b.shape
        assert a.tobytes() == b.tobytes()
    assert fast.bit_generator.state == ref.bit_generator.state


def l2_member(n):
    return random_l2_matrix(n, np.random.default_rng(73))


@pytest.mark.parametrize("i", range(4))
@pytest.mark.parametrize("j", range(4))
def test_wrong_parity_block_rejected(i, j):
    a = l2_member(2)
    block = a[2 * i : 2 * i + 2, 2 * j : 2 * j + 2]
    wrong = block @ R  # e * R where the class puts e * I2, and the reverse
    a[2 * i : 2 * i + 2, 2 * j : 2 * j + 2] = wrong
    mi, mj = 3 - i, 3 - j
    a[2 * mi : 2 * mi + 2, 2 * mj : 2 * mj + 2] = wrong  # keep the mirror pair equal
    assert not is_l2_matrix(a)


@pytest.mark.parametrize("i", range(4))
@pytest.mark.parametrize("j", range(4))
def test_broken_mirror_pair_rejected(i, j):
    a = l2_member(2)
    a[2 * i : 2 * i + 2, 2 * j : 2 * j + 2] *= 1.5  # still of the right parity
    assert not is_l2_matrix(a)


@pytest.mark.parametrize("module", PRODUCTION_MODULES)
def test_production_modules_do_not_import_oracles(module):
    tree = ast.parse((Path(nopanet.__file__).parent / f"{module}.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
            imported.update(f"{node.module or ''}.{alias.name}" for alias in node.names)
    assert not [name for name in imported if "oracles" in name.split(".")]


def calls_numpy_linalg(tree) -> bool:
    """Whether a module reaches numpy.linalg: ``np.linalg.x``, or an import of it."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "linalg":
            if isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy"):
                return True
        if isinstance(node, ast.Import) and any(
            a.name.startswith("numpy.linalg") for a in node.names
        ):
            return True
        if isinstance(node, ast.ImportFrom) and (
            (node.module or "").startswith("numpy.linalg")
            or (node.module == "numpy" and any(a.name == "linalg" for a in node.names))
        ):
            return True
    return False


@pytest.mark.parametrize(
    "module",
    sorted(
        f.stem
        for f in Path(nopanet.__file__).parent.glob("*.py")
        if f.stem not in ("linalg", "oracles")
    ),
)
def test_only_linalg_calls_numpy_linalg(module):
    # every factorisation then gets the mirror and the condition check
    tree = ast.parse((Path(nopanet.__file__).parent / f"{module}.py").read_text())
    assert not calls_numpy_linalg(tree)


def test_numpy_linalg_detector_sees_each_form():
    for source in (
        "np.linalg.inv(a)",
        "import numpy.linalg",
        "from numpy import linalg",
        "from numpy.linalg import solve",
    ):
        assert calls_numpy_linalg(ast.parse(source))
    assert not calls_numpy_linalg(ast.parse("from .linalg import solve\nlinalg.solve(a, b)"))
