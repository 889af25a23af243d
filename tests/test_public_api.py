"""Every name a package exports through ``__all__`` resolves.

A deleted function whose re-export stays behind in an ``__init__``
breaks ``from repro.<pkg> import *`` and every caller of that name;
this catches it at the package, not at the first user.
"""

import importlib

import pytest

PACKAGES = [
    "repro",
    "repro.alignment",
    "repro.codon",
    "repro.core",
    "repro.io",
    "repro.likelihood",
    "repro.models",
    "repro.optimize",
    "repro.parallel",
    "repro.trees",
    "repro.utils",
]


@pytest.mark.parametrize("package", PACKAGES)
def test_every_exported_name_resolves(package):
    module = importlib.import_module(package)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []
