import ast
import inspect
import re
from pathlib import Path

import spinpulse
from spinpulse import analysis, dsl, errors, sequence, simulator, su2

MODULES = (su2, sequence, dsl, errors, simulator, analysis)

# The names the package exported before it built __all__ from the module
# lists; none of them may leave the namespace.
PINNED_NAMES = """
    Unitary2 RotationSpec rotation compose fidelity axis_angle
    Pulse Delay Repeat Acquire SequenceElement PulseProgram
    bb1_phases bb1_sequence bb1_rabi_program
    ParseError parse_program format_program parse_angle_literal
    Gaussian Uniform Discrete ErrorModel EnsembleSpec ensemble_nodes
    SpinState Signal propagate bloch rabi_trace echo_train default_echo_ensemble
    FidelityScan EseemRatioSpec PhaseSensitivityReport bb1_fidelity scan_order
    phase_sensitivity_prediction verify_eq5_coefficients estimate_rotation_error
    ensemble_mean_fidelity eseem_ratio magic_refocus_angle __version__
""".split()


def test_pinned_names_stay_exported():
    assert len(PINNED_NAMES) == 44
    assert set(PINNED_NAMES) <= set(spinpulse.__all__)


def test_no_name_listed_twice():
    names = [name for module in MODULES for name in module.__all__]
    assert len(set(names)) == len(names)
    assert len(set(spinpulse.__all__)) == len(spinpulse.__all__)


def test_every_listed_name_resolves():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(spinpulse, name) is getattr(module, name)
    assert spinpulse.__version__ == "0.1.0"


def test_module_constants_are_listed():
    # every public upper-case name a module assigns at top level is in its
    # __all__, so the package namespace carries it
    for module in MODULES:
        tree = ast.parse(inspect.getsource(module))
        for node in tree.body:
            targets = node.targets if isinstance(node, ast.Assign) else []
            if isinstance(node, ast.AnnAssign):
                targets = [node.target]
            for target in targets:
                name = getattr(target, "id", "")
                if name.isupper() and not name.startswith("_"):
                    assert name in module.__all__, f"{module.__name__}.{name}"


# A README statement of a constant: `module.NAME` = value, with ^ as a power.
README_CONSTANT = re.compile(r"`(\w+)\.([A-Z][A-Z0-9_]*)` = ([0-9.e+-]+(?:\^[0-9]+)?)")


def test_readme_constants_match_the_modules():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    statements = README_CONSTANT.findall(readme)
    assert statements, "README states no `module.NAME` = value constant"
    for module, name, text in statements:
        base, _, power = text.partition("^")
        stated = int(base) ** int(power) if power else float(base)
        assert stated == getattr(getattr(spinpulse, module), name), f"{module}.{name} = {text}"
