"""Import contract: an entry point loads only the code its runs use.

``repro/__init__.py`` resolves its public names on first access, so the
service, round and CLI paths never load the families they do not run —
the hierarchical estimators (and scipy with them), the CFO-binning
baseline with its frequency oracles and Norm-Sub post-processing, the
experiment runner, the datasets, the lint tooling and the service's load
generator, which is client-side code.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = str(Path(repro.__file__).resolve().parent.parent)

#: Modules no entry point below may load, with all their submodules.
OPTIONAL = (
    "scipy",
    "repro.hierarchy",
    "repro.binning",
    "repro.freq_oracle",
    "repro.postprocess",
    "repro.experiments",
    "repro.datasets",
    "repro.devtools",
    "repro.service.loadgen",
)


def modules_after(statements: str) -> list[str]:
    """``sys.modules`` after running ``statements`` in a fresh interpreter."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=SRC if not path else SRC + os.pathsep + path)
    script = f"{statements}\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    result = subprocess.run(
        [sys.executable, "-c", script],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(result.stdout.splitlines()[-1])


def optional_loaded(modules: list[str]) -> list[str]:
    return [
        name
        for name in modules
        if any(name == root or name.startswith(root + ".") for root in OPTIONAL)
    ]


@pytest.mark.parametrize(
    "statement",
    [
        "import repro.service.http",
        "import repro.cli",
        "import repro.tasks, repro.protocol.server",
    ],
)
def test_entry_point_loads_no_optional_family(statement):
    assert optional_loaded(modules_after(statement)) == []


def test_bare_package_import_loads_no_submodule():
    modules = modules_after("import repro")
    assert [name for name in modules if name.startswith("repro.")] == []


def test_hierarchical_estimator_loads_scipy_when_built():
    before = modules_after("from repro import make_estimator")
    assert "scipy" not in before
    after = modules_after(
        "from repro import make_estimator\n"
        "make_estimator('hh-admm', 1.0, 64)"
    )
    assert "scipy" in after
    assert "repro.hierarchy.admm" in after


def test_every_public_name_is_its_defining_module_object():
    names = [name for name in repro.__all__ if name != "__version__"]
    assert len(names) == len(set(names)) == 67
    for name in names:
        value = getattr(repro, name)
        home = importlib.import_module(repro._EXPORTS[name])
        assert getattr(home, name) is value, name
        defining = getattr(value, "__module__", None)
        if isinstance(defining, str) and defining.startswith("repro."):
            assert getattr(sys.modules[defining], name) is value, name


def test_star_import_and_dir_cover_every_public_name():
    namespace: dict = {}
    exec("from repro import *", namespace)
    assert len(repro.__all__) == 68
    assert [name for name in repro.__all__ if name not in namespace] == []
    assert namespace["__version__"] == repro.__version__
    listed = dir(repro)
    assert [name for name in repro.__all__ if name not in listed] == []


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        repro.no_such_name  # noqa: B018
    assert not hasattr(repro, "no_such_name")
