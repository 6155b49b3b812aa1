"""DESIGN.md §3's module inventory names real files and every package.

The block lists ``src/repro/`` at column 0, each package (path relative to
``src/repro/``) at two spaces and its modules at four; wrapped descriptions
are indented further.  Renaming or adding a module without the inventory
fails here.
"""

import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE_ROOT = ROOT / "src" / "repro"
_FILES = re.compile(r"(?:([\w.]+\.py),?\s*)")


def _inventory() -> tuple[set[str], set[str]]:
    """(packages, module paths) the block names, relative to src/repro/."""
    text = (ROOT / "DESIGN.md").read_text()
    body = text.split("## 3. System inventory", 1)[1]
    block = body.split("```\n", 2)[1]
    lines = block.splitlines()
    assert lines[0] == "src/repro/"
    packages: set[str] = set()
    modules: set[str] = set()
    package = ""
    for line in lines[1:]:
        indent = len(line) - len(line.lstrip(" "))
        token = line.split()[0]
        if indent == 2 and token.endswith("/"):
            package = token
            packages.add(package)
        elif indent == 2:
            modules.add(token)
        elif indent == 4:
            pos = 4
            while (match := _FILES.match(line, pos)) and match.group(1):
                modules.add(package + match.group(1))
                pos = match.end()
    return packages, modules


def test_every_named_path_exists():
    packages, modules = _inventory()
    assert modules
    for package in packages:
        assert (PACKAGE_ROOT / package / "__init__.py").is_file(), package
    for module in modules:
        assert (PACKAGE_ROOT / module).is_file(), module


def test_every_package_is_named():
    packages, _modules = _inventory()
    on_disk = {
        path.parent.relative_to(PACKAGE_ROOT).as_posix() + "/"
        for path in PACKAGE_ROOT.rglob("__init__.py")
        if path.parent != PACKAGE_ROOT
    }
    assert on_disk - packages == set()
