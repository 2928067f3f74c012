import ast
import inspect
import json
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
    SpinState Signal propagate bloch rabi_trace echo_train
    FidelityScan EseemRatioSpec PhaseSensitivityReport bb1_fidelity scan_order
    phase_sensitivity_prediction verify_eq5_coefficients estimate_rotation_error
    ensemble_mean_fidelity eseem_ratio magic_refocus_angle __version__
""".split()


def test_pinned_names_stay_exported():
    assert len(PINNED_NAMES) == 43
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


def test_readme_names_resolve():
    # the leading name of each "Ensembles" bullet, and every name in the
    # library rows of the layout table, is in its module's __all__
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    ensembles = readme.split("\n## Ensembles\n", 1)[1].split("\n## ", 1)[0]
    bullets = re.findall(r"^\* `(\w+)", ensembles, re.M)
    assert bullets, "README lists no ensemble distribution"
    for name in bullets:
        assert name in errors.__all__, f"errors.{name}"
    rows = re.findall(r"^\| `spinpulse\.(\w+)` *\| (.*) \|$", readme, re.M)
    listed = {module: re.findall(r"`(\w+)`", names) for module, names in rows}
    short = {module.__name__.rsplit(".", 1)[1]: module for module in MODULES}
    assert sorted(listed) == sorted([*short, "cli"])
    for name, module in short.items():
        for listed_name in listed[name]:
            assert listed_name in module.__all__, f"{name}.{listed_name}"


def test_cli_imports_only_public_names():
    # every name cli.py takes from a package module is in that module's
    # __all__; the package version comes from the package itself
    from spinpulse import cli

    imported = [
        (node.module, alias.name)
        for node in ast.parse(inspect.getsource(cli)).body
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
        for alias in node.names
    ]
    assert imported, "cli.py imports nothing from the package's modules"
    for module, name in imported:
        assert name in getattr(spinpulse, module).__all__, f"{module}.{name}"


def test_cited_bench_records_exist():
    # every BENCH_*.json record the source or the docs cite is at the repo
    # root, parses, and names the Python and numpy it was measured on
    root = Path(__file__).resolve().parents[1]
    texts = [module.read_text(encoding="utf-8") for module in (root / "src").rglob("*.py")]
    texts += [(root / doc).read_text(encoding="utf-8") for doc in ("README.md", "ROADMAP.md")]
    cited = sorted(set(re.findall(r"BENCH_\w+\.json", "\n".join(texts))))
    assert cited, "nothing cites a BENCH_*.json record"
    for name in cited:
        host = json.loads((root / name).read_text(encoding="utf-8"))["host"]
        assert host["python"] and host["numpy"], name
