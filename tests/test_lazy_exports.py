"""The packages' lazy export surface (PEP 562 ``__getattr__``)."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

#: Runs the in-tree package in a fresh interpreter.
_ENV = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))

#: Packages whose exports load on first access.
LAZY_PACKAGES = (
    "repro",
    "repro.analysis",
    "repro.carbon",
    "repro.compiler",
    "repro.core",
    "repro.experiments",
    "repro.gating",
    "repro.hardware",
    "repro.isa",
    "repro.simulator",
    "repro.workloads",
)
#: Every package; serving loads its whole stack eagerly.
PACKAGES = (*LAZY_PACKAGES, "repro.serving")


def _fresh(code: str) -> str:
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=_ENV, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


@pytest.mark.parametrize("name", PACKAGES)
class TestExportContract:
    def test_every_export_resolves(self, name):
        package = importlib.import_module(name)
        assert package.__all__
        for export in package.__all__:
            assert getattr(package, export) is not None, export

    def test_star_import_binds_every_export(self, name):
        package = importlib.import_module(name)
        namespace: dict = {}
        exec(f"from {name} import *", namespace)
        assert set(package.__all__) <= set(namespace)
        for export in package.__all__:
            assert namespace[export] is getattr(package, export)

    def test_dir_lists_the_exports(self, name):
        package = importlib.import_module(name)
        assert set(package.__all__) <= set(dir(package))

    def test_unknown_name_is_an_attribute_error_naming_the_module(self, name):
        package = importlib.import_module(name)
        with pytest.raises(AttributeError, match=f"'{name}'.*'no_such_export'"):
            package.no_such_export  # noqa: B018
        assert not hasattr(package, "no_such_export")


@pytest.mark.parametrize("name", LAZY_PACKAGES)
def test_importing_a_package_loads_none_of_its_modules(name):
    """``import repro.<pkg>`` runs only the package's own ``__init__``."""
    loaded = _fresh(
        f"import json, sys, {name}; "
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('repro'))))"
    )
    parents = {name.rsplit(".", i)[0] for i in range(name.count(".") + 1)}
    assert json.loads(loaded) == sorted({*parents, "repro._lazy"})


def test_first_access_loads_only_the_defining_module():
    loaded = _fresh(
        "import sys, repro.experiments; repro.experiments.SweepSpec; "
        "print('repro.experiments.spec' in sys.modules, "
        "'repro.experiments.runner' in sys.modules)"
    )
    assert loaded == "True False"


@pytest.mark.parametrize("name", ["repro", "repro.gating"])
def test_policy_name_comes_from_the_report_module(name):
    """``PolicyName`` is re-exported from :mod:`repro.gating.report`,
    so reading it loads no policy kernel."""
    from repro.gating import report

    assert importlib.import_module(name).PolicyName is report.PolicyName
    loaded = _fresh(
        f"import sys, {name}; {name}.PolicyName; "
        "print('repro.gating.policies' in sys.modules, 'numpy' in sys.modules)"
    )
    assert loaded == "False False"


def test_submodule_exports_are_the_modules():
    from repro import analysis
    from repro.analysis import evaluation, tables

    assert analysis.evaluation is evaluation
    assert analysis.format_table is tables.format_table
