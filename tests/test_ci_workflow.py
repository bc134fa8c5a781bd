"""The CI workflow's ``repro`` command lines still parse.

Nobody can run Actions from a checkout, so a renamed flag or module in
``.github/workflows/ci.yml`` would only fail on the next push.  This
loads the workflow, expands every matrix entry, and feeds each
``python -m repro.…`` / ``lswc-sim`` invocation's flags to the module's
own argument parser — parse only, nothing runs.
"""

from __future__ import annotations

import argparse
import importlib
import re
import shlex
from pathlib import Path

import pytest
import yaml

WORKFLOW = Path(__file__).resolve().parent.parent / ".github" / "workflows" / "ci.yml"


def _invocations() -> list[tuple[str, str, list[str]]]:
    """``(job[entry], module, argv)`` for every repro command line."""
    found = []
    for job_name, job in yaml.safe_load(WORKFLOW.read_text())["jobs"].items():
        entries = job.get("strategy", {}).get("matrix", {}).get("include") or [{}]
        for entry in entries:
            label = f"{job_name}[{entry['name']}]" if "name" in entry else job_name
            for step in job["steps"]:
                command = re.sub(
                    r"\$\{\{\s*matrix\.(\w+)\s*\}\}",
                    lambda match: str(entry.get(match.group(1), match.group(0))),
                    step.get("run", ""),
                )
                for line in command.splitlines():
                    tokens = shlex.split(line)
                    if tokens[:1] == ["lswc-sim"]:
                        found.append((label, "repro.cli", tokens[1:]))
                    elif tokens[:2] == ["python", "-m"] and tokens[2].startswith("repro"):
                        found.append((label, tokens[2], tokens[3:]))
    return found


INVOCATIONS = _invocations()


class _Parsed(Exception):
    """Raised in place of running the command once its flags parsed."""


def test_the_workflow_runs_every_sweep_cli():
    modules = {module for _, module, _ in INVOCATIONS}
    assert {
        "repro.cli",
        "repro.experiments.adversweep",
        "repro.experiments.concurrency",
        "repro.experiments.faultsweep",
        "repro.experiments.scalefrontier",
        "repro.experiments.tournament",
    } <= modules


def test_sweep_smokes_are_one_matrix_job():
    jobs = yaml.safe_load(WORKFLOW.read_text())["jobs"]
    sweeps = {
        label.split("[")[0]
        for label, module, _ in INVOCATIONS
        if module.startswith("repro.experiments.")
    }
    assert sweeps == {"sweep-smoke"}
    for entry in jobs["sweep-smoke"]["strategy"]["matrix"]["include"]:
        assert set(entry) == {"name", "module", "args", "validate"}
        if entry["module"] != "repro.experiments.scalefrontier":
            assert "--workers 2 --check-determinism" in entry["args"]
        # The validate expression is pasted into ``python -c "…"``.
        assert '"' not in entry["validate"]
        compile(entry["validate"], entry["name"], "exec")


def test_typecheck_paths_exist():
    """A deleted module left in the mypy step breaks only the typecheck job."""
    root = WORKFLOW.parents[2]
    paths = []
    for job in yaml.safe_load(WORKFLOW.read_text())["jobs"].values():
        for step in job["steps"]:
            tokens = shlex.split(step.get("run", ""))
            if tokens[:3] == ["python", "-m", "mypy"]:
                paths += [token for token in tokens[3:] if not token.startswith("-")]
    assert paths, "no mypy step found"
    assert [path for path in paths if not (root / path).exists()] == []


def _pytest_paths(job: str) -> list[str]:
    """The test paths every ``python -m pytest`` step of ``job`` names."""
    paths = []
    for step in yaml.safe_load(WORKFLOW.read_text())["jobs"][job]["steps"]:
        tokens = shlex.split(step.get("run", ""))
        if tokens[:3] == ["python", "-m", "pytest"]:
            paths += [token for token in tokens[3:] if token.startswith("tests")]
    return paths


def test_checkpoint_suites_run_in_the_differential_and_serve_jobs():
    """The checkpoint format's own suites gate both jobs a format change
    can break: the golden replay and the eviction-heavy serve load."""
    root = WORKFLOW.parents[2]
    for job in ("golden-diff", "serve-load"):
        paths = _pytest_paths(job)
        assert {"tests/test_checkpoint_resume.py", "tests/test_checkpoint_format.py"} <= set(paths)
        assert [path for path in paths if not (root / path).exists()] == []


def test_frontier_suites_run_in_the_differential_job():
    """The goldens rest on the priority frontier's pop order; its unit
    and reference-property suites, those of the re-ranking and spilling
    queues built on its bands, and the spilled session's identities with
    the unspilled one (fetch order, checkpoints), gate the same job."""
    root = WORKFLOW.parents[2]
    paths = _pytest_paths("golden-diff")
    pinned = {
        "tests/test_core_frontier.py",
        "tests/test_prop_frontier.py",
        "tests/test_core_reprioritizable.py",
        "tests/test_prop_extended_frontiers.py",
        "tests/test_prop_frontier_accounting.py",
        "tests/test_core_spilling.py",
        "tests/test_session_frontier.py",
        "tests/golden",
    }
    assert pinned <= set(paths)
    assert [path for path in paths if not (root / path).exists()] == []


def test_engine_identities_run_in_the_differential_job():
    """The reference oracle, the pinned checkpoint bytes and the per-page
    frame count gate the job that replays the goldens."""
    assert {
        "tests/test_reference_oracle.py",
        "tests/test_checkpoint_bytes.py",
        "tests/test_frame_budget.py",
    } <= set(_pytest_paths("golden-diff"))


def test_the_pinned_suites_run_under_two_fixed_hash_seeds():
    """Digests and bytes that follow the interpreter's string hashes would
    pass under one seed and fail under another: the hash-seed job runs
    the pinned suites under two."""
    root = WORKFLOW.parents[2]
    job = yaml.safe_load(WORKFLOW.read_text())["jobs"]["hash-seed"]
    assert job["strategy"]["matrix"]["seed"] == ["123", "4242"]
    assert job["env"]["PYTHONHASHSEED"] == "${{ matrix.seed }}"
    paths = _pytest_paths("hash-seed")
    assert {
        "tests/golden",
        "tests/test_checkpoint_bytes.py",
        "tests/test_store_build.py",
        "tests/test_experiments_sweep.py",
        "tests/test_experiments_faultsweep.py",
        "tests/test_experiments_adversweep.py",
        "tests/test_experiments_tournament.py",
    } <= set(paths)
    assert [path for path in paths if not (root / path).exists()] == []


def test_the_partition_pin_runs_in_the_serial_vs_parallel_step():
    """The pinned partitioned results gate the job whose other suites
    check partitioned runs: the executor's and the partition accounting."""
    root = WORKFLOW.parents[2]
    paths = _pytest_paths("sweep-executor")
    assert {
        "tests/test_exec_sweep.py",
        "tests/test_parallel_accounting.py",
        "tests/golden/test_golden_partitions.py",
    } <= set(paths)
    assert [path for path in paths if not (root / path).exists()] == []


def test_the_dataset_cache_runs_with_the_page_store_suites():
    """The dataset cache is a page store, so its suite gates the job that
    runs the store's own."""
    root = WORKFLOW.parents[2]
    paths = _pytest_paths("scale-frontier")
    assert {"tests/test_webspace_store.py", "tests/test_experiments_datasets.py"} <= set(paths)
    assert [path for path in paths if not (root / path).exists()] == []


def test_the_store_fetch_path_suites_run_with_the_page_store_suites():
    """The suites that drive ``PageStore.fetch_record`` and ``_materialise``
    (id lookup, url-id hints, the store page's frame count) gate the job
    that runs the store's own."""
    root = WORKFLOW.parents[2]
    paths = _pytest_paths("scale-frontier")
    assert {
        "tests/test_store_id_of.py",
        "tests/test_id_hints.py",
        "tests/test_frame_budget.py",
    } <= set(paths)
    assert [path for path in paths if not (root / path).exists()] == []


def test_the_build_memory_suites_run_with_the_page_store_suites():
    """The link phase's byte-identical chunked dedupe and its traced
    memory budget gate the job that builds and pins the store files."""
    root = WORKFLOW.parents[2]
    paths = _pytest_paths("scale-frontier")
    assert {"tests/test_graphgen_linker.py", "tests/test_build_memory.py"} <= set(paths)
    assert [path for path in paths if not (root / path).exists()] == []


def test_the_per_page_layers_are_type_checked():
    """The one-frame fetch, extract and judgment paths are mypy-checked."""
    paths = []
    for step in yaml.safe_load(WORKFLOW.read_text())["jobs"]["typecheck"]["steps"]:
        tokens = shlex.split(step.get("run", ""))
        if tokens[:3] == ["python", "-m", "mypy"]:
            paths += tokens[3:]
    assert {"src/repro/core/visitor.py", "src/repro/core/classifier.py"} <= set(paths)


@pytest.mark.parametrize(
    ("module_name", "argv"),
    [pytest.param(module, argv, id=label) for label, module, argv in INVOCATIONS],
)
def test_flags_parse(module_name, argv, monkeypatch):
    real_parse_args = argparse.ArgumentParser.parse_args

    def parse_only(self, args=None, namespace=None):
        real_parse_args(self, args, namespace)
        raise _Parsed

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", parse_only)
    module = importlib.import_module(module_name)
    main = getattr(module, "_main", None) or module.main
    with pytest.raises(_Parsed):
        main(argv)
