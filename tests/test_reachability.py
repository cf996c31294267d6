"""Every definition in `src/langirl` is reached from `src/langirl`, or is allow-listed with its reason."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "langirl"

# module path: qualified name -> why it stays without a caller in src/.
KEPT = {
    "analysis.py:autocorr_time": "ESS for metrics.json (ROADMAP item 3); tested against AR(1) theory",
    "forward.py:pool_stream": "fresh multikernel pools from the init density (ROADMAP item 4)",
    "kernels.py:verify_kernel_axioms": "reference for the kernel mass and symmetry tests (ROADMAP item 6)",
    "problems/cmdp.py:policy_to_spherical": "reference inverse of spherical_to_policy in tests/test_cmdp.py",
    "problems/cmdp.py:ground_truth_penalized": "exact objective the SPSA gradients are tested against",
    "problems/cmdp.py:make_angle_pool_source": "reference pool stream the CLI's chunked SPSA pools are tested against",
    "problems/logistic.py:make_pool_oracle": "pool oracle for pool_stream (ROADMAP item 4)",
    "problems/mixture.py:make_pool_oracle": "pool oracle for pool_stream (ROADMAP item 4); bench/tracer.py binds",
    "problems/mixture.py:expected_reward": "locates the two modes for tests/test_mixture.py and bench/analyse.py",
    "problems/switching.py:averaged_oracle": "the fast-switch regime's stationary-average reference (ROADMAP item 5)",
    "tracking.py:run_tracking": "library-only regime tracking, to become a CLI experiment (ROADMAP item 5)",
    "tracking.py:mode_sign_accuracy": "per-regime accuracy for the tracking experiment (ROADMAP item 5)",
    "tracking.py:write_tracking_csv": "tracking.csv of the tracking experiment (ROADMAP item 5)",
}


def definitions(tree):
    """(qualified name, node) of each top-level function and class, and of each method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef):
                    yield f"{node.name}.{sub.name}", sub


def references(tree):
    """(name, line) of each name and attribute read; an import alone is not a reference."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno


def unreached():
    trees = {path.relative_to(SRC).as_posix(): ast.parse(path.read_text()) for path in sorted(SRC.rglob("*.py"))}
    refs = {(module, name, line) for module, tree in trees.items() for name, line in references(tree)}
    found = []
    for module, tree in trees.items():
        for qualname, node in definitions(tree):
            name = qualname.rsplit(".", 1)[-1]
            if name.startswith("__") and name.endswith("__"):
                continue  # called by Python itself
            inside = range(node.lineno, node.end_lineno + 1)
            if not any(n == name and not (m == module and line in inside) for m, n, line in refs):
                found.append(f"{module}:{qualname}")
    return found


def test_every_definition_has_a_reference_in_src():
    # A name-level check: a reference to any definition of the same name counts.
    missing = [key for key in unreached() if key not in KEPT]
    assert not missing, f"no reference in src/: {missing}; delete them or list them in KEPT with a reason"


def test_kept_names_are_still_unreached():
    # Once something in src/ calls a kept definition, its entry is stale.
    stale = set(KEPT) - set(unreached())
    assert not stale, f"referenced in src/ now, drop from KEPT: {sorted(stale)}"
