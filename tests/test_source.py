"""Checks on the library source itself."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]
SOURCES = sorted((ROOT / "src" / "binrisk").glob("*.py"))


def test_sources_found():
    assert len(SOURCES) >= 8


def test_no_assert_statements():
    # python -O strips assert statements, so a check written as one
    # would vanish; the library raises typed errors instead
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def _callers(function: str) -> set[tuple[str, str]]:
    """(module, top-level definition) of every call of function in src/."""
    callers = set()
    for path in SOURCES:
        for stmt in ast.parse(path.read_text(), filename=str(path)).body:
            owner = getattr(stmt, "name", f"line {stmt.lineno}")
            for node in ast.walk(stmt):
                if isinstance(node, ast.Call) and function in (
                    getattr(node.func, "id", None),
                    getattr(node.func, "attr", None),
                ):
                    callers.add((path.name, owner))
    return callers


def test_kernel_is_called_only_by_the_beta_measure():
    # _log_beta_measure is the one home of the incomplete-beta kernel, and
    # the kernel does not call itself (its upper tail runs its own fraction),
    # so a change to how measures are computed is made once, for every caller
    assert _callers("log_inc_beta_lower") == {("incbeta.py", "_log_beta_measure")}


def test_the_fraction_runs_from_the_kernel_and_the_upper_i():
    # an upper I whose lower fraction runs is cf / alpha, read from the
    # fraction without the kernel's rescaling; both decide that side by one
    # rule, so the two cannot disagree on where the fraction converges
    both = {("incbeta.py", "log_inc_beta_lower"), ("incbeta.py", "_log_I")}
    assert _callers("_betacf") == both
    assert _callers("_lower_side") == both


def test_the_c_row_is_built_only_by_the_table_builder():
    # the upper table keeps its row 1/I(x+a, n+a+b+1, p_bar), and the J rows
    # and the small-p_bar condition read it, so one kernel call per upper
    # configuration builds it
    assert _callers("_inverse_I_row") == {("estimators.py", "_estimate_table")}


def test_predictive_measures_are_read_through_the_memo():
    # _log_measure is the predictive module's one reader of the beta
    # measure, so no mass, table or table set computes a measure that the
    # memo shared by all configurations already holds
    tree = ast.parse((SOURCES[0].parent / "predictive.py").read_text())
    readers = {
        getattr(stmt, "name", f"line {stmt.lineno}")
        for stmt in tree.body
        if not isinstance(stmt, ast.ImportFrom)
        for node in ast.walk(stmt)
        if "_log_beta_measure" in (getattr(node, "id", None), getattr(node, "attr", None))
    }
    assert readers == {"_log_measure"}


def _check_calls(module: str, builder: set[str]) -> list[str]:
    """The _check_* calls inside the top-level definitions of module named in builder."""
    tree = ast.parse((SOURCES[0].parent / module).read_text())
    defined = {getattr(stmt, "name", None) for stmt in tree.body}
    assert builder <= defined
    return [
        f"{stmt.name}:{node.lineno}"
        for stmt in tree.body
        if getattr(stmt, "name", None) in builder
        for node in ast.walk(stmt)
        if isinstance(node, ast.Call) and getattr(node.func, "id", "").startswith("_check")
    ]


def test_the_integral_family_checks_nothing():
    # the kernel is incbeta's one public function and checks its arguments;
    # the four cores read exponents and bounds that PriorSpec and
    # BinomialSetup have checked, and the ceiling on p_bar is checked once
    # per table, and once by the n = 1 maximum difference, which reads one
    # correction without a table
    tree = ast.parse((SOURCES[0].parent / "incbeta.py").read_text())
    functions = {stmt.name: stmt for stmt in tree.body if isinstance(stmt, ast.FunctionDef)}
    assert [name for name in functions if not name.startswith("_")] == ["log_inc_beta_lower"]
    cores = {"_log_beta_measure", "_log_I", "_bracket", "_inverse_I_row"}
    assert _check_calls("incbeta.py", cores) == []
    raised = [
        f"{name}:{node.lineno}"
        for name in cores
        for node in ast.walk(functions[name])
        if isinstance(node, ast.Raise)
        and any(getattr(part, "id", None) == "ValueError" for part in ast.walk(node))
    ]
    assert raised == []
    assert _callers("_check_p_bar") == {
        ("estimators.py", "_estimate_table"),
        ("dominance.py", "max_risk_diff_symmetric_n1"),
    }
    imported = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert "binom" not in imported


def test_window_builder_checks_nothing():
    # n and p are checked at the public entry points; the pmf windows are
    # built on every cache miss of a sweep and take them as checked, and so
    # does the bound on the terms the core leaves out
    builder = {"pmf_windows", "_build_windows", "_window_edge", "_exp_terms", "PmfWindows"}
    assert _check_calls("binom.py", builder | {"_tail_ratio"}) == []


def test_plug_in_density_builds_no_cached_row():
    # each estimate d is a p that only its plug-in term reads, so the term
    # is computed directly: it builds no pmf window and calls no builder
    # of a row or table cache (name = lru_cache(...)(builder))
    cached = {"pmf_windows"}
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text())):
            call = getattr(node, "value", None)
            if isinstance(node, ast.Assign) and isinstance(call, ast.Call):
                if getattr(getattr(call.func, "func", None), "id", None) == "lru_cache":
                    cached |= {target.id for target in node.targets}
                    cached |= {arg.id for arg in call.args}
    assert {"_short_windows", "_long_windows", "_build_windows", "_build_table"} <= cached
    tree = ast.parse((SOURCES[0].parent / "predictive.py").read_text())
    [plug_in] = [stmt for stmt in tree.body if getattr(stmt, "name", None) == "plug_in_density"]
    called = {
        getattr(node.func, "id", None) or getattr(node.func, "attr", None)
        for node in ast.walk(plug_in)
        if isinstance(node, ast.Call)
    }
    assert called & cached == set()


def test_p_free_row_builders_check_nothing():
    # the J rows read the row of an upper table, built from a PriorSpec and
    # a BinomialSetup that checked a, b, p_bar and n, and both
    # grid engines take the tables, the rows and the grid as built; the mass
    # tables' log rows are built once per table set, after the per-p entry
    # has checked p and the table count; the predictive masses take x and y
    # as checked by bayes_predictive and PredictiveTable.build, and the
    # table set makes its own x = 0..n
    assert _check_calls("dominance.py", {"_j_rows", "_window_pass", "_row_pass"}) == []
    assert _check_calls("risk.py", {"_mass_logs", "_log_rows"}) == []
    assert _check_calls("predictive.py", {"_masses", "bayes_predictive_tables"}) == []
    # the coefficient row and a table's log rows are filled where a window,
    # an edge probe or a mass reads them, inside the window builds and the
    # risk sums: their fillers call no check and raise nothing
    fillers = [("binom.py", "_log_binom_coeffs"), ("binom.py", "_coeff_row")]
    fillers += [("binom.py", "_coeff_entries")]
    fillers += [("binom.py", "_LazyRow"), ("estimators.py", "EstimateTable._logs")]
    found = []
    for module, name in fillers:
        nodes = ast.parse((SOURCES[0].parent / module).read_text()).body
        for level in name.split("."):
            [node] = [stmt for stmt in nodes if getattr(stmt, "name", None) == level]
            nodes = node.body
        found += [
            f"{name}:{part.lineno}"
            for part in ast.walk(node)
            if isinstance(part, ast.Raise)
            or isinstance(part, ast.Call)
            and getattr(part.func, "id", "").startswith("_check")
        ]
    assert found == []


def test_p_is_checked_in_one_place():
    # every risk takes p in (0, 1), checked once per public call by
    # risk._check_p; the risk sums with their loss terms, the window builder
    # and the grid engines take it as checked, with no branch for p outside that
    # range (the public bound functions check p <= p_bar before the window
    # pass reads it)
    owners = [
        path.name
        for path in SOURCES
        for stmt in ast.parse(path.read_text()).body
        if getattr(stmt, "name", None) == "_check_p"
    ]
    assert owners == ["risk.py"]
    found = []
    checked = (
        ("risk.py", {"_risk_sums"}),
        ("binom.py", {"_build_windows"}),
        ("dominance.py", {"_window_pass", "_row_pass"}),
    )
    for module, names in checked:
        tree = ast.parse((SOURCES[0].parent / module).read_text())
        assert names <= {getattr(stmt, "name", None) for stmt in tree.body}
        found += [
            f"{stmt.name}:{node.lineno}"
            for stmt in tree.body
            if getattr(stmt, "name", None) in names
            for node in ast.walk(stmt)
            if isinstance(node, ast.Compare)
            and any(getattr(side, "id", None) == "p" for side in (node.left, *node.comparators))
        ]
    assert found == []
    assert _check_calls("risk.py", {"_risk_sums"}) == []


def _identifiers(node: ast.AST) -> list[str]:
    """The names node binds or reads, if it is a name, an attribute, a
    definition or an imported alias."""
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.alias):
        return [node.name, node.asname]
    return []


def test_row_pass_is_named_only_at_the_engine_choice():
    # the two grid engines yield the same tuples; the row pass serves the
    # grid of exhaustive_dominance_check while n + 1 <= 64, picked against
    # the window pass in one expression, and every other sum over a grid or
    # at one p reads the window pass, so a change to a sum is made once per
    # engine
    uses, choices = [], []
    for path in SOURCES:
        for stmt in ast.parse(path.read_text(), filename=str(path)).body:
            owner = getattr(stmt, "name", f"line {stmt.lineno}")
            for node in ast.walk(stmt):
                if "_row_pass" in _identifiers(node):
                    uses.append((path.name, owner))
                if isinstance(node, ast.IfExp):
                    picked = [getattr(node.body, "id", None), getattr(node.orelse, "id", None)]
                    if picked == ["_row_pass", "_window_pass"]:
                        choices.append((path.name, owner))
    engine_choice = ("dominance.py", "exhaustive_dominance_check")
    assert uses == [("dominance.py", "_row_pass"), engine_choice]
    assert choices == [engine_choice]


def _imported(node: ast.AST) -> list[str]:
    """The top-level package of each absolute import in node, if it is one."""
    if isinstance(node, ast.Import):
        return [alias.name.split(".")[0] for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.level == 0:
        return [(node.module or "").split(".")[0]]
    return []


def _imports(module: str) -> set[tuple[str, str]]:
    """(file, top-level statement) of every import of module or its
    submodules anywhere in the library, function bodies included."""
    found = set()
    for path in SOURCES:
        for stmt in ast.parse(path.read_text(), filename=str(path)).body:
            owner = getattr(stmt, "name", f"line {stmt.lineno}")
            if any(module in _imported(node) for node in ast.walk(stmt)):
                found.add((path.name, owner))
    return found


def test_no_module_imports_scipy():
    # the special functions are the library's own (binrisk.special and the
    # incomplete gamma in binrisk.poisson); scipy serves only the tests
    assert _imports("scipy") == set()


def test_no_module_imports_numpy():
    # every number is an exact finite sum; the Monte Carlo sampler that
    # needed numpy is a test oracle in tests/conftest.py
    assert _imports("numpy") == set()


def test_no_module_imports_dataclasses():
    # importing dataclasses loads inspect, ast, dis and tokenize, most of
    # the CLI's start-up; the records are named tuples and two small classes
    assert _imports("dataclasses") == set()


def test_no_module_imports_typing():
    # a clean interpreter pays about 18 ms to import typing
    assert _imports("typing") == set()


def test_runtime_needs_only_the_standard_library():
    # the library installs no third-party package, and the test extra
    # names every one the tests and scripts import
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert project["dependencies"] == []
    extra = {
        re.match(r"[\w.-]+", requirement).group().lower().replace("-", "_")
        for requirement in project["optional-dependencies"]["test"]
    }
    local = {
        "binrisk", "conftest", "write_outputs", "make_figure_data", "bench_compare", "time_calls"
    }
    allowed = set(sys.stdlib_module_names) | local | extra
    outside = {
        (path.name, name)
        for path in [*(ROOT / "tests").glob("*.py"), *(ROOT / "scripts").glob("*.py")]
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        for name in _imported(node)
        if name not in allowed
    }
    assert outside == set()


def test_cli_import_loads_neither_scipy_nor_numpy():
    # start-up is most of a short CLI run; a fresh interpreter shows what
    # importing the CLI pulls in, dataclasses and the inspect it imports too
    src = ROOT / "src"
    forbidden = {"scipy", "numpy", "dataclasses", "inspect"}
    code = (
        "import sys, binrisk.cli; "
        f"print(sorted({forbidden!r} & {{m.split('.')[0] for m in sys.modules}}))"
    )
    env = {**os.environ, "PYTHONPATH": str(src)}
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
