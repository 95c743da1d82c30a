"""A command imports what it runs.

Facts, not timings, so nothing here can flake on a slow host:

* importing the CLI or the runner loads neither NumPy, networkx, the
  topology/SIMD stack nor any experiment module;
* a warm (all-cached) ``run all --fast --out STORE`` plus ``report STORE``
  loads none of them either -- cached serving reads schemas from
  :mod:`repro.experiments.schemas`, never from an experiment module;
* the five lazily re-exporting package roots still resolve every public
  name, list it in ``dir()`` and reject unknown names;
* registry specs point at their module's own ``ARTIFACT_SCHEMA`` and resolve
  their ``run`` lazily -- also inside forked ``--jobs`` workers, whose
  aggregate stays bit-identical to the serial one.
"""

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

#: Packages a command must not load, with everything below them, unless it
#: runs a shard; experiment modules count too (their package roots are cheap).
HEAVY_PACKAGES = ("numpy", "networkx", "repro.topology", "repro.simd", "repro.embedding")
HEAVY_PREFIXES = tuple(f"{package}." for package in HEAVY_PACKAGES) + (
    "repro.experiments.claims.",
    "repro.experiments.figures.",
)

LAZY_PACKAGES = (
    "repro",
    "repro.topology",
    "repro.experiments",
    "repro.experiments.claims",
    "repro.experiments.figures",
)

_REPORT_HEAVY = """
import sys
heavy = sorted(
    name for name in sys.modules
    if name in {packages!r} or name.startswith({prefixes!r})
)
print("HEAVY=" + ",".join(heavy))
""".format(packages=HEAVY_PACKAGES, prefixes=HEAVY_PREFIXES)


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


def _heavy_modules_after(code: str, cwd=None):
    stdout = _python(code + _REPORT_HEAVY, cwd=cwd)
    (line,) = [line for line in stdout.splitlines() if line.startswith("HEAVY=")]
    return [name for name in line[len("HEAVY="):].split(",") if name]


@pytest.mark.parametrize("module", ["repro.experiments.cli", "repro.experiments.runner"])
def test_importing_the_command_layer_loads_nothing_heavy(module):
    assert _heavy_modules_after(f"import {module}\n") == []


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
    assert _heavy_modules_after(warm, cwd=tmp_path) == []
    assert (tmp_path / "warm.json").read_bytes() == (tmp_path / "cold.json").read_bytes()
    assert (tmp_path / "report.md").stat().st_size > 0


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
    assert lines["HEAVY"] == ""
    serial = run_shards(plan_shards(ids, profile="fast"), jobs=1)
    assert lines["PAYLOADS"] == canonical_json(serial.payloads())
