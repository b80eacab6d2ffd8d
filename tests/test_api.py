"""The public API has a reader for every name.

Each name in `dcoh.__all__` must be read by the package itself outside its
own definition, by the benchmark (which reaches dcoh only through
`pkg.<module>.<name>` attribute chains), or be listed in the README's
"Library API" section as a function kept for library users; and each
default of a public function or class must be set by some caller.
"""

import ast
import importlib
import inspect
import io
import re
import tokenize
from pathlib import Path

import dcoh

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "dcoh"


def _read_in_package() -> set[str]:
    """Names the package modules read, outside the definition of each name."""
    names = set()
    for path in SRC.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            skip = getattr(node, "name", None)
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name) and sub.id != skip:
                    names.add(sub.id)
                elif isinstance(sub, ast.Attribute) and sub.attr != skip:
                    names.add(sub.attr)
                elif isinstance(sub, ast.ImportFrom):
                    # `from .states import ...` and `from . import channels` read modules
                    names.update([sub.module] if sub.module else [a.name for a in sub.names])
    return names


def _read_by_bench() -> set[str]:
    """Last links of the `pkg.<...>` attribute chains in bench/."""
    names = set()
    for path in (ROOT / "bench").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            chain = []
            while isinstance(node, ast.Attribute):
                chain.append(node.attr)
                node = node.value
            if chain and isinstance(node, ast.Name) and node.id == "pkg":
                names.update(chain)
    return names


def _library_api() -> list[str]:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = re.search(r"^## Library API\n(.*?)(?=^## |\Z)", text, re.M | re.S)
    assert section, "README.md has no '## Library API' section"
    return re.findall(r"^- `(\w+)`", section.group(1), re.M)


def test_every_public_name_has_a_reader():
    readers = _read_in_package() | _read_by_bench() | set(_library_api())
    unread = sorted(set(dcoh.__all__) - {"__version__"} - readers)
    assert not unread, f"public names nothing reads: {unread}"


def _calls() -> list[tuple[str, int, set[str]]]:
    """(callee's last name, positional count, keyword names) of each call in
    the package and the benchmark."""
    calls = []
    for path in [*SRC.glob("*.py"), *(ROOT / "bench").glob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                calls.append((name, len(node.args), {k.arg for k in node.keywords}))
    return calls


def test_every_public_default_is_set_by_a_caller():
    # an option that only tests set, or that the code could work out from its
    # inputs, is a constant: each default of a public function or class must
    # be overridden by some call in the package or the benchmark
    calls = _calls()
    unset = []
    for name in dcoh.__all__:
        obj = getattr(dcoh, name)
        if not inspect.isfunction(obj) and not inspect.isclass(obj):
            continue
        params = list(inspect.signature(obj).parameters.values())
        for i, p in enumerate(params):
            if p.default is not p.empty and not any(
                    callee == name and (n > i or p.name in kw) for callee, n, kw in calls):
                unset.append(f"{name}({p.name})")
    assert not unset, f"public defaults no caller sets: {unset}"


def test_library_api_names_exist():
    modules = [importlib.import_module(f"dcoh.{p.stem}")
               for p in SRC.glob("*.py") if p.name != "__init__.py"]
    listed = _library_api()
    assert listed
    missing = [name for name in listed if not any(hasattr(m, name) for m in modules)]
    assert not missing, f"README Library API names no dcoh function: {missing}"


def test_checking_modules_import_no_solver():
    # a verifier re-checks certificates with the state, channel and monotone
    # modules, so none of them may reach a solver, the oracle or the CLI
    imports = {}
    for path in SRC.glob("*.py"):
        imports[path.stem] = set()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                # `from .states import ...` and `from . import channels`
                imports[path.stem].update([node.module] if node.module
                                          else [a.name for a in node.names])
    for name in ("states", "monotones", "majorization", "channels"):
        reached, todo = set(), [name]
        while todo:
            for module in imports[todo.pop()] - reached:
                reached.add(module)
                todo.append(module)
        assert not reached & {"hypotest", "rates", "oracle", "cli"}, (name, sorted(reached))


def _thresholds():
    """(module, name) of each module-level UPPER_CASE float constant below 1e-6."""
    found = set()
    for path in SRC.glob("*.py"):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if (isinstance(node, ast.Assign) and isinstance(node.value, ast.Constant)
                    and isinstance(node.value.value, float) and 0.0 < node.value.value < 1e-6):
                found |= {(path.stem, t.id) for t in node.targets
                          if isinstance(t, ast.Name) and t.id.isupper()}
    return found


def test_shared_constants_come_from_states():
    # states holds every named threshold and imports no dcoh module; no module
    # imports another only for its UPPER_CASE constants, unless that module is
    # states
    from_states, constants_only = [], []
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                if path.stem == "states":
                    from_states.append(node.module or [a.name for a in node.names])
                elif node.module not in (None, "states") and all(
                        a.name.isupper() for a in node.names):
                    constants_only.append((path.stem, node.module))
    assert not from_states and not constants_only, (from_states, sorted(constants_only))
    elsewhere = sorted((module, name) for module, name in _thresholds() if module != "states")
    assert not elsewhere, elsewhere


def test_only_monotones_reads_the_family():
    # the certificate compares the family in one place, monotones._certificate,
    # which qubit_decide and the oracle call; no other module imports `_family`
    # or reaches it as `monotones._family`
    readers = sorted(path.stem for path in SRC.glob("*.py") if path.stem != "monotones"
                     for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                     if (isinstance(node, ast.ImportFrom)
                         and any(a.name == "_family" for a in node.names))
                     or (isinstance(node, ast.Attribute) and node.attr == "_family"))
    assert readers == [], readers


# Rounding margins of one formula, not bounds an input is judged against:
# (module, top-level function, value).
KEPT_MARGINS = {
    ("hypotest", "dh_epsilon", 1e-12),  # the infinity cut 1e-12 (1 - eps)
    ("rates", "_dilution_lower_unit", 1e-14),  # the Dinkelbach rise
    ("rates", "_dilution_upper_unit", 1e-12),  # the witness target 1 - eps - 1e-12
}


def test_small_float_literals_are_named_constants():
    # a threshold below 1e-6 is a module-level UPPER_CASE constant, so a report
    # can name it; only the kept rounding margins are written as literals
    literals = set()
    for path in SRC.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        named = {id(node.value) for node in tree.body if isinstance(node, ast.Assign)
                 and all(isinstance(t, ast.Name) and t.id.isupper() for t in node.targets)}
        for top in tree.body:
            for node in ast.walk(top):
                if (isinstance(node, ast.Constant) and isinstance(node.value, float)
                        and 0.0 < node.value < 1e-6 and id(node) not in named):
                    literals.add((path.stem, getattr(top, "name", None), node.value))
    assert literals == KEPT_MARGINS, sorted(literals ^ KEPT_MARGINS)


def test_numerical_conventions_name_every_tolerance():
    # each module-level threshold below 1e-6 is described in the README's
    # "Numerical conventions" section, with the comparison it decides, and
    # each "`NAME = value` (`module`)" entry there is a constant of that module
    # with that value
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Numerical conventions\n", 1)[1].split("\n## ", 1)[0]
    names = {name for _, name in _thresholds()}
    missing = sorted(name for name in names if f"`{name}" not in section)
    assert len(names) == 7 and not missing, (sorted(names), missing)
    entries = re.findall(r"`([A-Z_]+) = ([^`]+)` \(`(\w+)`\)", section)
    stale = [entry for entry in entries
             if getattr(importlib.import_module(f"dcoh.{entry[2]}"), entry[0], None)
             != float(entry[1])]
    assert entries and not stale, stale


def test_no_array_equality_helper_decides():
    # every equality reads a named tolerance (HERM_ATOL for matrices): an exact
    # np.array_equal has no literal for the test above to see, and np.allclose
    # or np.isclose bring default tolerances of their own
    banned = {"array_equal", "array_equiv", "allclose", "isclose"}
    calls = []
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name in banned:
                    calls.append((path.stem, node.lineno, name))
    assert not calls, calls


def _documentation():
    """(where, text) of the README and of each docstring and comment in the package."""
    yield "README.md", (ROOT / "README.md").read_text(encoding="utf-8")
    for path in SRC.glob("*.py"):
        source = path.read_text(encoding="utf-8")
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)):
                yield path.name, ast.get_docstring(node) or ""
        for token in tokenize.generate_tokens(io.StringIO(source).readline):
            if token.type == tokenize.COMMENT:
                yield path.name, token.string


def test_documented_references_name_module_attributes():
    # each backticked `module.name` or `dcoh.module.name` names an attribute of
    # that dcoh module, so a deleted or renamed function leaves no stale mention
    modules = {p.stem for p in SRC.glob("*.py") if p.name != "__init__.py"}
    stale = set()
    for where, text in _documentation():
        for span in re.findall(r"`([^`\n]+)`", text):
            ref = re.fullmatch(r"(?:dcoh\.)?(\w+)\.(\w+)", span)
            if ref and ref[1] in modules and not hasattr(
                    importlib.import_module(f"dcoh.{ref[1]}"), ref[2]):
                stale.add((where, span))
    assert not stale, sorted(stale)
