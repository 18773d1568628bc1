"""The plan/compile seam: lowering decides everything, generates nothing.

* :func:`repro.runtime.lowering.lower` on the harness shapes (Echo on)
  returns a record the analyzers certify clean, without compiling or
  instantiating a single closure, and equal to the lowering a
  :class:`CompiledPlan` is built on;
* the seam is structural: the lowering and arena modules import nothing
  from the code generator, the plan, or the parallel layer, and the
  analyzers that read the record import nothing from the code generator
  or the plan (checked on the source, since ``repro.runtime`` imports
  every module).
"""

import ast
import pathlib

import pytest

import repro.runtime.codegen as codegen_mod
from repro.analysis import check_equivalence
from repro.analysis.lifetime import check_lifetimes
from repro.analysis.packing import check_packing
from repro.runtime import Arena, CompiledPlan
from repro.runtime.lowering import PlanLowering, lower
from tests.test_compile_linear import _compiled, _nmt_graph, _wordlm_graph

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"


def _stream(low):
    """Descriptors as comparable values (nodes by uid, chains by member)."""
    out = []
    for d in low.descs:
        row = [d["kind"], d["node"].uid, tuple(d["in_slots"]),
               tuple(d["out_slots"])]
        if d["kind"] == "fused":
            row.append(tuple((m.uid, p) for _op, m, p in d["chain"]))
        if d["kind"] == "alias":
            row.append(repr(d["alias_index"]))
        out.append(tuple(row))
    return out


@pytest.fixture
def no_codegen(monkeypatch):
    """A fresh template memo, plus spies on ``compile`` and on closure
    instantiation inside the code generator."""
    memo = codegen_mod.TemplateMemo()
    monkeypatch.setattr(codegen_mod, "TEMPLATES", memo)
    made = []
    real_function_type = codegen_mod.FunctionType

    def compile_spy(src, filename, mode):
        made.append(("compile", filename))
        return compile(src, filename, mode)

    def function_spy(*args):
        made.append(("instantiate", args[2]))
        return real_function_type(*args)

    monkeypatch.setattr(codegen_mod, "compile", compile_spy, raising=False)
    monkeypatch.setattr(codegen_mod, "FunctionType", function_spy)
    return memo, made


@pytest.mark.parametrize("model", ["nmt16", "wordlm"])
def test_lower_certifies_clean_without_codegen(model, no_codegen):
    graph = _nmt_graph() if model == "nmt16" else _wordlm_graph()
    report, training, _cache = _compiled(graph)
    if model == "nmt16":
        assert report.accepted
    order, outputs = training.executor.order, training.executor.outputs

    memo, made = no_codegen
    low = lower(order, outputs, Arena())
    assert isinstance(low, PlanLowering)
    assert made == [] and memo.codes == {}
    assert check_lifetimes(low) == []
    assert check_packing(low) == []
    assert check_equivalence(low, outputs=outputs, order=order) == []

    plan = CompiledPlan(order, outputs, Arena())
    assert made, "the spies must see a compiled plan's closures"
    ref = plan.lowering
    assert _stream(low) == _stream(ref)
    assert low.memplan.placements == ref.memplan.placements
    assert low.witnesses == ref.witnesses
    assert low.clears_at == ref.clears_at


def _imports(path):
    """Every module a source file imports, at any nesting depth (an
    imported name counts as a submodule: ``from repro.runtime import
    codegen``)."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.add(node.module or "")
            names.update(f"{node.module}.{a.name}" for a in node.names)
    return names


@pytest.mark.parametrize(
    "module, forbidden",
    [
        ("runtime/lowering.py", ("codegen", "compiled")),
        ("runtime/arena.py", ("codegen", "compiled")),
        ("analysis/lifetime.py", ("codegen", "compiled")),
        ("analysis/packing.py", ("codegen", "compiled")),
        ("analysis/equiv.py", ("codegen", "compiled")),
    ],
)
def test_seam_imports(module, forbidden):
    banned = {f"repro.runtime.{name}" for name in forbidden}
    crossing = {
        name for name in _imports(SRC / module)
        if any(name == b or name.startswith(b + ".") for b in banned)
    }
    assert crossing == set()
