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


MODULES = sorted(info.name for info in pkgutil.iter_modules(keymine.__path__))


def library_section():
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    return readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]


def test_every_module_name_in_the_readme_library_section_resolves():
    library = library_section()
    named = [(module, name) for module, name in re.findall(r"`(\w+)\.(\w+)", library)
             if module in MODULES]
    assert len(named) >= 5
    missing = [f"{module}.{name}" for module, name in named
               if not hasattr(importlib.import_module(f"keymine.{module}"), name)]
    assert missing == []


def test_every_record_signature_in_the_readme_library_section_lists_its_fields():
    # `Name(a, b, ...)` written for a NamedTuple names its fields, in order
    records = {name: record for module in MODULES
               for name, record in vars(importlib.import_module(f"keymine.{module}")).items()
               if isinstance(record, type) and issubclass(record, tuple)
               and hasattr(record, "_fields")}
    written = [(name, tuple(arg.split("=")[0].strip() for arg in args.split(",")))
               for name, args in re.findall(r"\b(\w+)\(([^()]*)\)", library_section())
               if name in records]
    assert {"AssociationRule", "CountedItemset", "FrequentLevel", "HandPartition",
            "MiningParams"} <= {name for name, _ in written}
    assert [(name, fields) for name, fields in written if fields != records[name]._fields] == []
