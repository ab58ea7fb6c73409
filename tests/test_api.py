"""The package's public names, the CLI's use of them, and the names the
benchmark looks up."""

import ast
import importlib
import inspect
import runpy
from pathlib import Path

import operadlax
from operadlax import cli

# the names exported by version 0.1.0, less the aliases, wrappers,
# hand-expanded right-hand sides, finite-difference checkers and test-only
# residuals removed since; each must stay importable
EARLIER_NAMES = (
    "Operation identity_op evaluate linear_comb frobenius_norm "
    "partial_compose total_compose bracket composition_relation_residual "
    "unit_residual jacobi_residual OscState AuxValues IntegrationError "
    "hamilton_generator exact_flow rk4_path "
    "rk4_linear_path lax_matrices "
    "aux_algebraic aux_exact_flow "
    "COMPONENT_NAMES StructureConstants2 SolutionParams "
    "CheckResult VerificationReport m_matrix "
    "lax_rhs_index closed_form_mu "
    "verify_lax_representation"
).split()

# removed on purpose: five aliases and wrappers, then the four hand-expanded
# right-hand sides, which the generators replace (the tests keep those in
# tests/reference_rhs.py), then the finite-difference checkers, whose
# statements the tests prove exactly (tests/exact_algebra.py), then
# g_values, which only the tests call (tests/reference_rhs.py), then the
# last finite difference, grid_lax_residual, which step_defect replaces, then
# hamiltonian, a wrapper of energy that no command calls
REMOVED_NAMES = (
    "make_operation", "closed_form_mu_dot", "RotationResiduals", "rk4_integrate",
    "reduced_lax_residuals",
    "hamilton_rhs", "aux_rhs", "lax_rhs_bracket", "lax_rhs_explicit",
    "classical_lax_residual", "g_residuals", "g_residuals_along", "pde_residual",
    "BranchLocusError", "g_values", "grid_lax_residual", "hamiltonian",
)

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_all_is_unique_resolvable_and_keeps_earlier_names():
    names = operadlax.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert getattr(operadlax, name) is not None
    assert len(EARLIER_NAMES) == 30
    assert set(EARLIER_NAMES) <= set(names)
    assert len(names) == 40  # 39, and sample_rows
    assert "sample_rows" in names
    for name in REMOVED_NAMES:
        assert name not in names
        assert not hasattr(operadlax, name)


def test_cli_imports_only_public_names_and_does_no_physics():
    tree = ast.parse(inspect.getsource(cli))
    imported = [alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level for alias in node.names]
    assert sorted(imported) == sorted([
        "format_json", "format_rows", "axiom_suites", "COMPONENT_NAMES", "SolutionParams",
        "sample_rows", "verify_lax_representation", "IntegrationError", "OscState",
    ])
    assert [name for name in imported if name.startswith("_")] == []
    attributes = {ast.unparse(node) for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert attributes & {"np.cos", "np.sin", "np.kron", "np.linalg"} == set()


def test_every_name_the_benchmark_looks_up_exists():
    # bench/spans.py rebinds each traced (module, attribute), and
    # bench/workloads.py checks simulate's output through lib.<name>; a
    # missing name would crash a traced run or fail every simulate request
    traced = runpy.run_path(str(BENCH / "spans.py"))  # writes no bytecode
    for module in traced["MODULES"]:
        importlib.import_module(f"operadlax.{module}")
    for module, attr in traced["TRACED"]:
        assert callable(getattr(importlib.import_module(f"operadlax.{module}"), attr))
    tree = ast.parse((BENCH / "workloads.py").read_text())
    looked_up = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
                 and isinstance(node.value, ast.Name) and node.value.id == "lib"}
    assert looked_up >= {"OscState", "aux_algebraic", "SolutionParams", "exact_flow",
                         "aux_exact_flow", "closed_form_mu"}
    for name in looked_up:
        assert hasattr(operadlax, name)
