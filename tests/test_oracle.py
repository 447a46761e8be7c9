import ast
from pathlib import Path

import pytest

import quadval
from helpers import F1, F1_VALS, F2, F2_VALS, F3, F3_VALS, F4, F4_VALS
from quadval import INFINITE, QuadraticPoly, empirical_period, valuation_sequence


def test_reference_rows():
    assert valuation_sequence(F1, 0, 22).values == F1_VALS
    assert valuation_sequence(F2, 0, 20).values == F2_VALS
    assert valuation_sequence(F3, 0, 16).values == F3_VALS
    assert valuation_sequence(F4, 0, 20).values == F4_VALS


def test_sequence_window_start():
    assert valuation_sequence(F1, 5, 4).values == F1_VALS[5:9]
    # f1(-2) = -35, f1(-1) = -34, f1(0) = -25
    assert valuation_sequence(F1, -2, 3).values == (0, 1, 0)


def test_sequence_container_protocol():
    seq = valuation_sequence(F4, 0, 8)
    assert len(seq) == 8
    assert list(seq) == list(F4_VALS[:8])
    assert seq[3] == 4
    assert seq.poly is F4 and seq.start == 0


def test_sequence_hits_roots():
    seq = valuation_sequence(QuadraticPoly(1, 0, -1), 0, 3)
    assert seq.values == (0, INFINITE, 0)


def test_sequence_count_validation():
    assert len(valuation_sequence(F1, 0, 0)) == 0
    with pytest.raises(ValueError):
        valuation_sequence(F1, 0, -1)


def period_of(f, horizon):
    return empirical_period(valuation_sequence(f, 0, horizon).values)


def test_empirical_period_bounded():
    assert period_of(F4, 256) == 32
    assert period_of(F3, 1024) == 128
    assert period_of(QuadraticPoly(1, 2, 5), 64) == 4
    assert period_of(QuadraticPoly(1, 1, 1), 16) == 1
    assert period_of(QuadraticPoly(2, 4, 6), 64) == 2


def test_empirical_period_needs_enough_room():
    # a horizon of 2 periods is the minimum that can confirm one
    assert period_of(F4, 64) == 32
    assert period_of(F4, 48) is None
    assert period_of(QuadraticPoly(1, 1, 1), 4) == 1
    with pytest.raises(ValueError):
        empirical_period(F4_VALS[:3])


def test_empirical_period_unbounded_is_none():
    assert period_of(F1, 256) is None
    assert period_of(F2, 256) is None


@pytest.mark.parametrize("module", ["classify", "closed_form", "tree", "operators"])
def test_structural_modules_never_import_the_oracle(module):
    source = Path(quadval.__file__).with_name(f"{module}.py").read_text(encoding="utf-8")
    imported = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
            imported.update(f"{node.module or ''}.{alias.name}" for alias in node.names)
    assert not [name for name in imported if "oracle" in name.split(".")]


MODULES = sorted(path.stem for path in Path(quadval.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("module", MODULES)
def test_nothing_in_tree_recurses(module):
    # trees thousands of levels deep rely on this; see build_tree and the tree renderers
    source = Path(quadval.__file__).with_name(f"{module}.py").read_text(encoding="utf-8")
    recursive = []
    for fn in ast.walk(ast.parse(source)):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for call in ast.walk(fn):
                if isinstance(call, ast.Call):
                    callee = call.func
                    name = callee.id if isinstance(callee, ast.Name) else getattr(callee, "attr", None)
                    if name == fn.name:
                        recursive.append(fn.name)
    assert recursive == []
