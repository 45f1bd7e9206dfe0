"""Package surface: lazy exports, which commands load numpy and scipy, and
the README's API list and examples.

The norming constants and the expansions are pure ``math``; a cold
``python -m powex`` loads numpy and scipy only for a verb that evaluates
the exact law, the normal survival function or the Monte Carlo.
"""
from __future__ import annotations

import ast
import json
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import powex
from powex import acceptance

# Runs ``python -m powex ARGS...`` in this interpreter, then prints the
# loaded module names as the last line of stdout.
CLI_PROBE = """
import json, runpy, sys
sys.argv = ["powex", *sys.argv[1:]]
try:
    runpy.run_module("powex", run_name="__main__", alter_sys=True)
except SystemExit:
    pass
print(json.dumps(sorted(sys.modules)))
"""


def loaded_modules(args: list[str]) -> set[str]:
    proc = subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=acceptance._child_env(), timeout=120)
    assert "Traceback" not in proc.stderr, proc.stderr
    return set(json.loads(proc.stdout.strip().split("\n")[-1]))


def heavy(modules: set[str]) -> list[str]:
    return sorted(m for m in modules if m.split(".")[0] in ("numpy", "scipy"))


@pytest.mark.parametrize("argv", [
    ["norming", "--n", "1000", "--t", "2"],
    ["norming", "--n", "1e6", "--t", "0.5", "--format", "json"],
    ["norming", "--n", "1"],
    ["table", "--n", "1000", "--t", "2", "--x=0:2:0.5", "--orders", "limit,third",
     "--target", "pdf"],
])
def test_pure_math_verbs_load_neither_numpy_nor_scipy(argv):
    modules = loaded_modules(["-c", CLI_PROBE, *argv])
    assert "powex.cli" in modules
    assert heavy(modules) == []
    # the records are NamedTuples: no dataclasses, which imports inspect
    assert {"dataclasses", "inspect"} & modules == set()


@pytest.mark.parametrize("argv", [
    ["norming", "--n", "1000", "--t", "2"],
    ["table", "--n", "1000", "--t", "2", "--x=0:2:0.5", "--orders", "limit,third"],
    ["simulate", "--n", "100", "--t", "2", "--reps", "2000", "--seed", "42"],
])
def test_verbs_load_no_decimal(argv):
    # format_number spells every value with str and float formatting
    modules = loaded_modules(["-c", CLI_PROBE, *argv])
    assert "powex.cli" in modules
    assert {"decimal", "_decimal"} & modules == set()


@pytest.mark.parametrize("argv", [
    ["mills", "--x", "5"],
    ["table", "--n", "1000", "--t", "2", "--x", "0", "--orders", "exact"],
])
def test_exact_law_and_survival_verbs_load_scipy(argv):
    # the probe sees a load when there is one
    assert "scipy.special" in loaded_modules(["-c", CLI_PROBE, *argv])


def test_import_cli_and_dir_load_neither_numpy_nor_scipy():
    modules = loaded_modules(["-c", "import json, sys, powex, powex.cli; dir(powex); "
                                    "print(json.dumps(sorted(sys.modules)))"])
    assert heavy(modules) == []


def test_fresh_dir_covers_all():
    names = loaded_modules(["-c", "import json, powex; print(json.dumps(dir(powex)))"])
    assert set(powex.__all__) <= names
    assert set(powex.__all__) <= set(dir(powex))


@pytest.mark.parametrize("name", powex.__all__)
def test_export_is_the_defining_module_object(name):
    obj = getattr(powex, name)
    module = sys.modules[obj.__module__]
    assert module.__name__.startswith("powex.")
    assert getattr(module, name) is obj


def test_submodules_and_star_import():
    assert powex.exact_cdf is powex.exact_law.exact_cdf
    namespace: dict = {}
    exec("from powex import *", namespace)
    assert {k for k in namespace if not k.startswith("__")} == set(powex.__all__)


def test_unknown_attribute():
    with pytest.raises(AttributeError, match="no attribute 'frobnicate'"):
        powex.frobnicate  # noqa: B018


@pytest.mark.parametrize("name", ["nu_expansion", "density_factor_expansion"])
def test_retired_names_are_gone(name):
    # diagnostics with no caller; tests/test_expansions.py keeps local copies
    assert name not in powex.__all__
    with pytest.raises(AttributeError):
        getattr(powex, name)


def test_records_carry_no_derived_flags():
    # t == 2.0 is the one record of the t = 2 branch
    assert powex.NormingConstants._fields == ("n", "t", "b", "c", "d")
    assert powex.ExpansionCoefficients._fields == (
        "k1", "k2", "varpi", "tau", "theta1", "theta2")
    assert not hasattr(powex.norming, "NEAR_TWO_WINDOW")


NC = powex.norming_constants(1e6, 1.0)


@pytest.mark.parametrize("produce,cls", [
    (lambda: powex.norming_constants(1e6, 1.0), powex.NormingConstants),
    (lambda: powex.transformed_quantile(NC, 0.5), powex.TransformedQuantile),
    (lambda: powex.coefficients(1.0, 0.5), powex.ExpansionCoefficients),
    (lambda: powex.exact_cdf(NC, 0.5), powex.Probability),
    *[(lambda order=order: powex.cdf_approx(NC, 0.5, order), powex.Probability)
      for order in powex.ApproxOrder],
    *[(lambda order=order: powex.pdf_approx(NC, 0.5, order), powex.Density)
      for order in powex.ApproxOrder],
])
def test_producers_build_their_record_type(produce, cls):
    # the hot producers skip the NamedTuple constructor; the record is the same
    r = produce()
    assert type(r) is cls and r == cls(*r)
    if cls is powex.Probability:
        assert r.clamped is False and r.raw is None
    if cls is powex.Density:
        assert r.floored is False and r.raw is None


README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def readme_block(after: str) -> str:
    """The first fenced block of README.md after the text ``after``."""
    return README[README.index(after):].split("```")[1].partition("\n")[2]


def test_readme_public_api_is_all():
    head = "Public API (`powex.__all__`):"
    paragraph = README[README.index(head) + len(head):].split("\n\n")[0]
    names = re.findall(r"`([^`]+)`", paragraph)
    assert sorted(names) == sorted(powex.__all__)
    assert len(set(names)) == len(names)


def test_readme_quick_start_values():
    # each expression with a `# value` comment prints that value: in full, as
    # its repr, or rounded to the decimals shown
    source = readme_block("## Library quick start")
    lines = source.split("\n")
    namespace: dict = {}
    shown, computed = [], []
    for stmt in ast.parse(source).body:
        if not isinstance(stmt, ast.Expr):
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
            continue
        value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
        comment = lines[stmt.end_lineno - 1][stmt.end_col_offset:]
        shown.append(re.fullmatch(r"\s*#\s*(-?\d+\.\d+)\b.*", comment)[1])
        decimals = len(shown[-1].partition(".")[2])
        computed.append(repr(value) if decimals >= 15 else f"{value:.{decimals}f}")
    assert len(shown) == 3 and shown == computed


def test_readme_cli_example_bytes():
    command, _, output = readme_block("For example:").partition("\n")
    assert command.startswith("$ powex ")
    assert acceptance._run_in_process(shlex.split(command)[2:]) == (0, output.encode(), b"")
