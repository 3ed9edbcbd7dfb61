"""The package's public names."""

import importlib
import pkgutil
import re

import keymine

from conftest import REPO


def test_every_exported_name_resolves():
    missing = [name for name in keymine.__all__ if not hasattr(keymine, name)]
    assert missing == []
    assert len(set(keymine.__all__)) == len(keymine.__all__)


def test_every_module_name_in_the_readme_library_section_resolves():
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    library = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    modules = {info.name for info in pkgutil.iter_modules(keymine.__path__)}
    named = [(module, name) for module, name in re.findall(r"`(\w+)\.(\w+)", library)
             if module in modules]
    assert len(named) >= 5
    missing = [f"{module}.{name}" for module, name in named
               if not hasattr(importlib.import_module(f"keymine.{module}"), name)]
    assert missing == []
