"""A command imports what it runs.

Facts, not timings, so nothing here can flake on a slow host:

* importing the CLI or the runner loads neither NumPy, networkx, the
  topology/SIMD stack nor any experiment module, and none of the modules
  only some commands use: the ``--jobs`` process pool
  (``concurrent.futures``, ``multiprocessing``), the HTML escaper, the
  environment stamp's ``platform`` and the trace reader;
* a warm (all-cached) ``run all --fast --out STORE`` plus ``report STORE``
  loads none of them either -- cached serving reads schemas from
  :mod:`repro.experiments.schemas`, never from an experiment module;
* a serial run of one sampled campaign loads no process pool and no campaign
  module it does not call;
* every package root re-exports through :func:`repro._lazy.lazy_exports`
  (only the telemetry recorder stays eager), and each still resolves every
  public name, lists it in ``dir()`` and rejects unknown names;
* registry specs point at their module's own ``ARTIFACT_SCHEMA`` and resolve
  their ``run`` lazily -- also inside forked ``--jobs`` workers, whose
  aggregate stays bit-identical to the serial one.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments.artifacts import canonical_json
from repro.experiments.registry import EXPERIMENTS, get_experiment
from repro.experiments.runner import plan_shards, run_shards

SRC = str(Path(__file__).resolve().parents[2] / "src")
PACKAGE_DIR = Path(SRC) / "repro"

#: Packages a command must not load, with everything below them, unless it
#: runs a shard; experiment modules count too (their package roots are cheap).
HEAVY_PACKAGES = ("numpy", "networkx", "repro.topology", "repro.simd", "repro.embedding")
#: Modules only some commands use: the ``--jobs`` pool, ``report --html``,
#: the environment stamp of a shard that runs, ``trace summarize``.
ON_DEMAND_PACKAGES = (
    "concurrent.futures",
    "multiprocessing",
    "html",
    "platform",
    "repro.telemetry.summarize",
)

LAZY_PACKAGES = (
    "repro",
    "repro.algorithms",
    "repro.analysis",
    "repro.embedding",
    "repro.experiments",
    "repro.experiments.claims",
    "repro.experiments.figures",
    "repro.permutations",
    "repro.simd",
    "repro.simulation",
    "repro.telemetry",
    "repro.topology",
    "repro.utils",
)

#: Package root -> the submodules it may import eagerly.  The recorder is the
#: telemetry package itself: every instrumented call site reads
#: ``telemetry.span`` on its hot path, so it must stay a plain global.
EAGER_SUBMODULES = {"repro.telemetry": {"repro.telemetry.recorder"}}

_REPORT_LOADED = """
import sys
loaded = sorted(
    name for name in sys.modules
    if name in {packages!r} or name.startswith({prefixes!r})
)
print("LOADED=" + ",".join(loaded))
"""


def _report_loaded(packages, extra_prefixes=()) -> str:
    prefixes = tuple(f"{package}." for package in packages) + tuple(extra_prefixes)
    return _REPORT_LOADED.format(packages=tuple(packages), prefixes=prefixes)


_EXPERIMENT_PREFIXES = ("repro.experiments.claims.", "repro.experiments.figures.")
_REPORT_HEAVY = _report_loaded(HEAVY_PACKAGES, _EXPERIMENT_PREFIXES)
#: What a command that runs no shard must not load.
_REPORT_UNUSED = _report_loaded(HEAVY_PACKAGES + ON_DEMAND_PACKAGES, _EXPERIMENT_PREFIXES)


def _python(code: str, cwd=None) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        SRC + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else SRC
    )
    completed = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        cwd=cwd,
        capture_output=True,
        text=True,
        check=True,
    )
    return completed.stdout


def _loaded_after(code: str, report: str, cwd=None):
    stdout = _python(code + report, cwd=cwd)
    (line,) = [line for line in stdout.splitlines() if line.startswith("LOADED=")]
    return [name for name in line[len("LOADED="):].split(",") if name]


@pytest.mark.parametrize("module", ["repro.experiments.cli", "repro.experiments.runner"])
def test_importing_the_command_layer_loads_nothing_heavy(module):
    assert _loaded_after(f"import {module}\n", _REPORT_UNUSED) == []


def test_serial_sampled_campaign_loads_no_pool_and_no_unused_campaign():
    run = (
        "from repro.experiments.runner import plan_shards, run_shards\n"
        "report = run_shards(plan_shards(['SAMPLED-FAULT'], profile='fast'), jobs=1)\n"
        "assert report.ok and len(report.executed) == 1\n"
    )
    watched = ("multiprocessing", "repro.simulation.campaign")
    assert _loaded_after(run, _report_loaded(watched)) == []


def test_warm_run_and_report_load_nothing_heavy(tmp_path):
    store = tmp_path / "store"
    cold = (
        "from repro.experiments.cli import main\n"
        f"assert main(['run', 'all', '--fast', '--out', {str(store)!r}, "
        "'--json', 'cold.json']) == 0\n"
    )
    _python(cold, cwd=tmp_path)
    warm = (
        "import contextlib, io\n"
        "from repro.experiments.cli import main\n"
        "stderr = io.StringIO()\n"
        "with contextlib.redirect_stderr(stderr):\n"
        f"    assert main(['run', 'all', '--fast', '--out', {str(store)!r}, "
        "'--json', 'warm.json']) == 0\n"
        f"    assert main(['report', {str(store)!r}, '--md', 'report.md']) == 0\n"
        "assert '24 shard(s): 0 ran, 24 cached' in stderr.getvalue(), stderr.getvalue()\n"
    )
    assert _loaded_after(warm, _REPORT_UNUSED, cwd=tmp_path) == []
    assert (tmp_path / "warm.json").read_bytes() == (tmp_path / "cold.json").read_bytes()
    assert (tmp_path / "report.md").stat().st_size > 0


def _init_tree(package: str) -> ast.Module:
    path = PACKAGE_DIR.parent.joinpath(*package.split("."), "__init__.py")
    return ast.parse(path.read_text(), filename=str(path))


def test_lazy_packages_are_every_package_root():
    found = {
        ".".join(path.parent.relative_to(PACKAGE_DIR.parent).parts)
        for path in PACKAGE_DIR.rglob("__init__.py")
    }
    assert found == set(LAZY_PACKAGES)


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_package_root_reexports_through_lazy_exports(package):
    tree = _init_tree(package)
    eager = {
        node.module
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.module != "repro._lazy"
    } | {
        alias.name
        for node in tree.body
        if isinstance(node, ast.Import)
        for alias in node.names
        if alias.name.startswith("repro")
    }
    assert eager <= EAGER_SUBMODULES.get(package, set()), (
        f"{package} imports {sorted(eager)} eagerly; re-export through lazy_exports"
    )
    installs = [
        node
        for node in tree.body
        if isinstance(node, ast.Assign)
        and isinstance(node.value, ast.Call)
        and getattr(node.value.func, "id", None) == "lazy_exports"
        and ast.unparse(node.targets[0]) == "(__getattr__, __dir__)"
    ]
    assert len(installs) == 1, f"{package} does not install lazy_exports"


@pytest.mark.parametrize("package", LAZY_PACKAGES)
class TestLazyPackageRoots:
    def test_every_public_name_imports(self, package):
        module = importlib.import_module(package)
        for name in module.__all__:
            assert getattr(module, name) is not None, name
        exec(f"from {package} import *", {})

    def test_dir_lists_every_public_name(self, package):
        module = importlib.import_module(package)
        assert set(module.__all__) <= set(dir(module))

    def test_unknown_attribute_raises(self, package):
        module = importlib.import_module(package)
        with pytest.raises(AttributeError, match="no_such_name"):
            module.no_such_name  # noqa: B018 - the lookup is the test


def test_root_names_resolve_to_their_defining_objects():
    from repro import StarGraph, measure_embedding
    from repro.embedding.metrics import measure_embedding as defined_measure
    from repro.topology.star import StarGraph as defined_star

    assert StarGraph is defined_star
    assert measure_embedding is defined_measure


def test_lazy_submodule_exports_are_the_submodules():
    from repro.experiments import claims, figures

    assert claims.exp_ranking is importlib.import_module(
        "repro.experiments.claims.exp_ranking"
    )
    assert figures.figure7_mapping_table is importlib.import_module(
        "repro.experiments.figures.figure7_mapping_table"
    )


@pytest.mark.parametrize("experiment_id", list(EXPERIMENTS))
def test_spec_schema_is_the_module_schema(experiment_id):
    spec = EXPERIMENTS[experiment_id]
    assert spec.schema is importlib.import_module(spec.module).ARTIFACT_SCHEMA


def test_get_experiment_returns_the_spec_run():
    assert get_experiment("fig7") is EXPERIMENTS["FIG7"].run
    assert "figure7_mapping_table" in repr(EXPERIMENTS["FIG7"].run)


def test_forked_workers_resolve_specs_and_match_serial():
    ids = ["FIG7", "THM4", "CMP", "NETWORK-FAMILY"]
    sharded = (
        "from repro.experiments.artifacts import canonical_json\n"
        "from repro.experiments.runner import plan_shards, run_shards\n"
        f"report = run_shards(plan_shards({ids!r}, profile='fast'), jobs=2)\n"
        "assert report.ok and len(report.executed) == 4\n"
        "print('PAYLOADS=' + canonical_json(report.payloads()))\n"
    )
    stdout = _python(sharded + _REPORT_HEAVY)
    lines = dict(line.split("=", 1) for line in stdout.splitlines() if "=" in line)
    # The parent only planned and aggregated: the workers imported the code.
    assert lines["LOADED"] == ""
    serial = run_shards(plan_shards(ids, profile="fast"), jobs=1)
    assert lines["PAYLOADS"] == canonical_json(serial.payloads())
