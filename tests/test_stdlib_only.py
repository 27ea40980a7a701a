import ast
import pathlib
import sys

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "branchbox"


def test_package_imports_only_the_standard_library():
    # branchbox stays stdlib-only, although numpy and scipy may be installed
    files = sorted(PACKAGE.rglob("*.py"))
    assert len(files) >= 15
    foreign = []
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign += [f"{path.relative_to(PACKAGE)}: {name}" for name in names
                        if name.partition(".")[0] not in sys.stdlib_module_names | {"branchbox"}]
    assert foreign == []


def _module_name(path: pathlib.Path) -> str:
    parts = path.relative_to(PACKAGE.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def test_every_import_is_used_exported_or_traced():
    # An import binding is kept for one of three readers: the module's own
    # code, its package `__all__`, or the benchmark's tracer, which wraps the
    # binding (TARGETS' (module, attr)) and needs it to exist.
    from perfbench.tracer import TARGETS

    traced = {(t.module, t.attr) for t in TARGETS}
    unused = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        module = _module_name(path)
        bound = [alias.asname or alias.name.partition(".")[0]
                 for node in ast.walk(tree)
                 if isinstance(node, (ast.Import, ast.ImportFrom))
                 and getattr(node, "module", None) != "__future__"
                 for alias in node.names]
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        exported = set()
        for node in tree.body:
            if (isinstance(node, ast.Assign)
                    and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
                exported |= set(ast.literal_eval(node.value))
        unused += [f"{module}: {name}" for name in bound
                   if name not in used | exported and (module, name) not in traced]
    assert unused == []
