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
