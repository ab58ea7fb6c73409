"""The package's public names, and the CLI's use of them."""

import ast
import inspect

import operadlax
from operadlax import cli

# the names exported by version 0.1.0, less five aliases and wrappers
# removed since; each must stay importable
EARLIER_NAMES = (
    "Operation identity_op evaluate linear_comb frobenius_norm "
    "partial_compose total_compose bracket composition_relation_residual "
    "unit_residual jacobi_residual OscState AuxValues IntegrationError "
    "hamiltonian hamilton_rhs hamilton_generator exact_flow rk4_path "
    "rk4_linear_path lax_matrices classical_lax_residual "
    "aux_algebraic aux_exact_flow aux_rhs g_residuals g_residuals_along "
    "COMPONENT_NAMES StructureConstants2 SolutionParams "
    "CheckResult VerificationReport BranchLocusError m_matrix lax_rhs_bracket "
    "lax_rhs_index lax_rhs_explicit closed_form_mu g_values "
    "verify_lax_representation pde_residual"
).split()


def test_all_is_unique_resolvable_and_keeps_earlier_names():
    names = operadlax.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert getattr(operadlax, name) is not None
    assert len(EARLIER_NAMES) == 41
    assert set(EARLIER_NAMES) <= set(names)


def test_cli_imports_only_public_names_and_does_no_physics():
    tree = ast.parse(inspect.getsource(cli))
    imported = [alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level for alias in node.names]
    assert imported
    assert [name for name in imported if name.startswith("_")] == []
    attributes = {ast.unparse(node) for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert attributes & {"np.cos", "np.sin", "np.kron", "np.linalg"} == set()
