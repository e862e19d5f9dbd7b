"""Every docstring example in the ``repro`` package runs and prints what it shows.

The examples are the package's front-page documentation (the section
walk-throughs in ``repro/__init__.py``, the headline ``neat_bound`` value,
the engines' quick starts), so a stale one misleads every reader.  Running
them with the tier-1 suite keeps them in step with the code.
"""

from __future__ import annotations

import doctest
import importlib
import pkgutil

import repro

MODULES = ["repro"] + sorted(
    info.name for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")
)


def test_every_docstring_example_runs(capsys):
    failed = {}
    attempted = 0
    for name in MODULES:
        result = doctest.testmod(importlib.import_module(name))
        attempted += result.attempted
        if result.failed:
            failed[name] = result.failed
    assert not failed, f"{failed}\n{capsys.readouterr().out}"
    assert attempted > 0
