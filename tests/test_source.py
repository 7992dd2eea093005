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
    # BinomialSetup have checked, p_bar on (0, 1) with no ceiling below 1,
    # since I is finite for every p_bar < 1; the table builder that calls
    # them checks nothing either
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
    assert _check_calls("estimators.py", {"_estimate_table"}) == []
    imported = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert "binom" not in imported


def test_window_builder_checks_nothing():
    # n and p are checked at the public entry points; the pmf windows are
    # built on every cache miss of a sweep and take them as checked, and so
    # does the bound on the terms the core leaves out
    builder = {"pmf_windows", "_build_windows", "_exp_terms", "_side", "_side_to_zero", "PmfWindows"}
    assert _check_calls("binom.py", builder | {"_reach", "_saddle_log_pmf", "_tail_ratio"}) == []


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
    # as checked by bayes_predictive and PredictiveTable.build, through
    # which the table set builds its own x = 0..n
    assert _check_calls("dominance.py", {"_j_rows", "_window_pass", "_row_pass"}) == []
    assert _check_calls("risk.py", {"_mass_logs", "_log_rows"}) == []
    assert _check_calls("predictive.py", {"_masses", "bayes_predictive_tables"}) == []
    # the coefficient entries are computed where a short window's terms or
    # a mass read them, and a table's log rows are filled inside the risk
    # sums: their fillers call no check and raise nothing
    fillers = [("binom.py", "_log_binom_coeffs"), ("binom.py", "_coeff_entries")]
    fillers += [("binom.py", "_LazyRow"), ("estimators.py", "EstimateTable._logs")]
    fillers += [("estimators.py", "EstimateTable._pair"), ("estimators.py", "_alphas")]
    fillers += [("estimators.py", "_betas"), ("estimators.py", "_upper_rhos")]
    fillers += [("estimators.py", "_interval_rhos")]
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


def test_the_difference_pair_has_one_form_per_row():
    # alpha = log1p(rho) and beta = -log1p(rho s d/(n-x+b)) read rho, which
    # the builder keeps: no entries function of the pair switches between
    # forms or forms the untruncated (x+a)/s again, and _pair does not
    # branch on the restriction, on which the builder already branched
    tree = ast.parse((SOURCES[0].parent / "estimators.py").read_text())
    defs = {getattr(stmt, "name", None): stmt for stmt in tree.body}
    table = defs["EstimateTable"].body
    [pair] = [stmt for stmt in table if getattr(stmt, "name", None) == "_pair"]
    for node in (defs["_alphas"], defs["_betas"], pair):
        branches = (ast.If, ast.IfExp, ast.Match, ast.BoolOp)
        assert [part.lineno for part in ast.walk(node) if isinstance(part, branches)] == []
        assert [
            part.lineno
            for part in ast.walk(node)
            if isinstance(part, ast.BinOp) and ast.unparse(part) == "(x + a) / s"
        ] == []
    assert "restriction" not in ast.unparse(pair)


def test_a_table_fills_its_log_rows_through_one_lazy_row():
    # a long table's log d and log(1-d) rows are the two rows of one
    # _LazyRow, each with its own entries function, so no entries call of
    # one row fills the other: _logs defines no nested fill function, and
    # estimators builds no packed row of its own
    tree = ast.parse((SOURCES[0].parent / "estimators.py").read_text())
    imported = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    assert imported & {"array", "_UNSET"} == set()
    [table] = [stmt for stmt in tree.body if getattr(stmt, "name", None) == "EstimateTable"]
    [logs] = [stmt for stmt in table.body if getattr(stmt, "name", None) == "_logs"]
    nested = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
    assert [node.lineno for node in ast.walk(logs) if isinstance(node, nested)] == [logs.lineno]


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
        ("risk.py", {"_risk_sums", "_pair_sums", "_certified"}),
        ("binom.py", {"_build_windows"}),
        ("dominance.py", {"_window_pass", "_row_pass", "_grid_sums"}),
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
    assert _check_calls("risk.py", {"_risk_sums", "_pair_sums", "_certified"}) == []


def test_the_core_window_is_certified_in_one_place():
    # the bound on the terms a core window leaves out is formed in one
    # function, risk._certified, which both core-window sums call; dominance
    # sums its differences through risk and reads no window's tail; a
    # restricted table reads its untruncated estimates as (x+a)/s and
    # builds no table for them
    owners, tails = [], []
    for path in SOURCES:
        for stmt in ast.parse(path.read_text(), filename=str(path)).body:
            owner = getattr(stmt, "name", f"line {stmt.lineno}")
            for node in ast.walk(stmt):
                # a product with a window's tail, as in tail (2 ceiling + 1)
                if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
                    if any("tail" in _identifiers(side) for side in (node.left, node.right)):
                        owners.append((path.name, owner))
                if isinstance(node, ast.Attribute) and node.attr == "tail":
                    tails.append((path.name, owner))
    assert owners == [("risk.py", "_certified")]
    [formed] = [
        node
        for node in ast.walk(ast.parse((SOURCES[0].parent / "risk.py").read_text()))
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "bound"
    ]
    assert ast.unparse(formed.value) == "windows.tail * (2.0 * ceiling + 1.0)"
    assert [owner for owner in tails if owner[0] == "dominance.py"] == []
    assert _callers("_certified") == {("risk.py", "_risk_sums"), ("risk.py", "_pair_sums")}
    assert {caller for caller in _callers("_pair_sums") if caller[0] != "risk.py"} == {
        ("dominance.py", "_window_pass")
    }
    tree = ast.parse((SOURCES[0].parent / "estimators.py").read_text())
    [table] = [stmt for stmt in tree.body if getattr(stmt, "name", None) == "EstimateTable"]
    [pair] = [stmt for stmt in table.body if getattr(stmt, "name", None) == "_pair"]
    called = {
        getattr(node.func, "id", None) or getattr(node.func, "attr", None)
        for node in ast.walk(pair)
        if isinstance(node, ast.Call)
    }
    assert called & {"build", "_build_table", "_build_large_table", "_estimate_table"} == set()


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
    # the two grid engines return the same columns; the row pass serves the
    # grids of both sweeps while n + 1 <= 64, picked against the window
    # pass in one expression of _grid_sums, which both sweeps call, and
    # every sum at one p reads the window pass, so a change to a sum is
    # made once per engine
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
    engine_choice = ("dominance.py", "_grid_sums")
    assert uses == [("dominance.py", "_row_pass"), engine_choice]
    assert choices == [engine_choice]
    assert _callers("_grid_sums") == {
        ("dominance.py", "exhaustive_dominance_check"), ("dominance.py", "risk_curves")
    }


def _grid_sum_calls(function: str) -> list[dict[str, ast.AST]]:
    """The keyword arguments of each _grid_sums call in dominance.function,
    which passes n and the grid alone by position."""
    tree = ast.parse((SOURCES[0].parent / "dominance.py").read_text())
    [body] = [stmt for stmt in tree.body if getattr(stmt, "name", None) == function]
    calls = [
        node
        for node in ast.walk(body)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_grid_sums"
    ]
    assert calls and all(len(call.args) == 2 for call in calls)
    return [{keyword.arg: keyword.value for keyword in call.keywords} for call in calls]


def test_each_sweep_sums_only_what_it_reports():
    # exhaustive_dominance_check reports the difference, which it sums as
    # one pair sum, so it passes no table to a loss sum; risk_curves
    # reports the two risks and the bound, which reads J(p) alone, so it
    # passes no pair and only the first of the J rows (rows = _j_rows(trunc)
    # or None), not E_p[1/I]'s
    for keywords in _grid_sum_calls("exhaustive_dominance_check"):
        assert "tables" not in keywords and "pairs" in keywords
    for keywords in _grid_sum_calls("risk_curves"):
        assert "pairs" not in keywords and "tables" in keywords
        rows = keywords["rows"]
        assert isinstance(rows, ast.IfExp) and ast.unparse(rows.orelse) == "()"
        assert ast.unparse(rows.body) == "rows[:1]"
    for function in ("exhaustive_dominance_check", "risk_curves"):
        assert not {("dominance.py", function)} & (
            _callers("_risk_sums") | _callers("point_risk") | _callers("_window_pass")
        )


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


FORBIDDEN = {"scipy", "numpy", "dataclasses", "inspect"}


def test_cli_import_loads_neither_scipy_nor_numpy():
    # start-up is most of a short CLI run; a fresh interpreter shows what
    # importing the CLI pulls in, dataclasses and the inspect it imports too
    src = ROOT / "src"
    code = (
        "import sys, binrisk.cli; "
        f"print(sorted({FORBIDDEN!r} & {{m.split('.')[0] for m in sys.modules}}))"
    )
    env = {**os.environ, "PYTHONPATH": str(src)}
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def _loaded(code: str) -> list[str]:
    """The binrisk modules, and the top-level modules of FORBIDDEN, that a
    fresh interpreter holds after running code, printed on the last line of
    its stdout."""
    watched = {"binrisk", *FORBIDDEN}
    code += f"; print(sorted(m for m in sys.modules if m.split('.')[0] in {watched!r}))"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    result = subprocess.run(
        [sys.executable, "-c", "import sys; " + code],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    return ast.literal_eval(result.stdout.splitlines()[-1])


KERNEL = ["binrisk.binom", "binrisk.incbeta", "binrisk.special"]
TABLES = [*KERNEL, "binrisk.estimators"]
SUMS = [*TABLES, "binrisk.predictive", "binrisk.risk"]


@pytest.mark.parametrize(
    "argv, modules",
    [
        (None, []),
        (["--help"], []),
        (["estimate", "--n", "abc"], []),
        (["estimate", "--n", "5", "--p-bar", "0.3"], TABLES),
        (["estimate", "--n", "5", "--p-bar", "0.3", "--p", "0.1"], SUMS),
        (["predictive", "--n", "5", "--x", "2", "--p-bar", "0.3"], [*KERNEL, "binrisk.predictive"]),
        (["risk-curve", "--n", "2", "--p-bar", "0.3", "--grid", "4"], [*SUMS, "binrisk.dominance"]),
        (["dominance", "--n", "2", "--p-bar", "0.3", "--grid", "4"], [*SUMS, "binrisk.dominance"]),
        (["threshold", "--a", "1", "--grid", "3"], [*SUMS, "binrisk.dominance"]),
        (["poisson-limit", "--k-grid", "10"], [*SUMS, "binrisk.poisson"]),
    ],
    ids=["import", "help", "usage-error", "estimate", "estimate-p", "predictive", "risk-curve",
         "dominance", "threshold", "poisson-limit"],
)
def test_a_command_loads_only_the_modules_it_runs(argv, modules):
    # the package root imports no submodule and the CLI none at module
    # level: without a bytecode cache each module a run loads is compiled,
    # 0.3 to 3.3 ms apiece, against about 5 ms for the whole import of the CLI;
    # no run loads a module of FORBIDDEN, directly or through the library
    code = "import binrisk.cli"
    if argv is not None:
        code += f"; binrisk.cli.main({argv!r})"
    assert _loaded(code) == sorted(["binrisk", "binrisk.cli", *modules])


def test_package_root_and_cli_import_no_library_module_at_module_level():
    found = [
        f"{name}:{stmt.lineno}"
        for name in ("__init__.py", "cli.py")
        for stmt in ast.parse((SOURCES[0].parent / name).read_text()).body
        if isinstance(stmt, ast.ImportFrom)
        and (stmt.level > 0 or (stmt.module or "").split(".")[0] == "binrisk")
        or isinstance(stmt, ast.Import)
        and any(alias.name.split(".")[0] == "binrisk" for alias in stmt.names)
    ]
    assert found == []


EXPORTS = {
    "BinomialSetup", "BracketOverflowError", "BoundUndefinedError", "EstimateTable",
    "PoissonConfig", "PredictiveTable", "PriorSpec", "RiskCurves", "bayes_predictive",
    "connection_sum", "dominance_threshold_n1", "exhaustive_dominance_check",
    "limit_convergence_report", "point_risk", "posterior_mean", "predictive_kl_risk",
    "risk_curves",
}


def test_package_root_resolves_each_export_to_its_home_object():
    import binrisk

    assert len(binrisk.__all__) == 17 and set(binrisk.__all__) == EXPORTS
    assert EXPORTS <= set(dir(binrisk))
    namespace: dict[str, object] = {}
    exec("from binrisk import *", namespace)
    for name in EXPORTS:
        value = getattr(binrisk, name)
        assert value is namespace[name]
        assert value is getattr(sys.modules[value.__module__], name)
        assert value.__module__.startswith("binrisk.")
        # a resolved name is kept, so a second access reads a global
        assert vars(binrisk)[name] is value
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        binrisk.no_such_name  # noqa: B018
