"""Shared session-scoped fixtures for the test suite.

The medical system (the paper's evaluation workload) and the campaign
results computed over its 3-designs x 4-models grid are expensive to
build and read-only in every test that touches them, so they are
constructed once per session here instead of once per module.

Markers (registered in pytest.ini):

* ``slow`` — takes more than a few seconds; run on demand;
* ``campaign`` — full campaign sweeps (tier 2).  The default ``addopts``
  deselect them, so plain ``pytest`` stays fast; CI's scheduled tier-2
  job runs ``pytest -m campaign``.
"""

from __future__ import annotations

import pytest


def pytest_addoption(parser):
    parser.addoption(
        "--update-golden",
        action="store_true",
        default=False,
        help="rewrite the per-workload golden reports under tests/golden/ "
             "instead of comparing against them",
    )


def _workload_ids():
    from repro.apps.workloads import default_registry

    return default_registry().names()


@pytest.fixture(scope="session", params=_workload_ids())
def workload(request):
    """Every registry workload in turn — tests taking this fixture run
    once per entry (medical, answering, pcm_pwm, pipeline, mesh,
    controller)."""
    from repro.apps.workloads import default_registry

    return default_registry().get(request.param)


@pytest.fixture(scope="session")
def workload_fig9(workload):
    """The (cheap, unmeasured) Figure 9 sweep of one workload — shared
    between the shape tests and the golden-report comparison."""
    from repro.experiments import run_figure9

    return run_figure9(workload=workload.id, count_transfers=False)


@pytest.fixture(scope="session")
def workload_fig10(workload):
    """The Figure 10 sweep of one workload (no equivalence pass)."""
    from repro.experiments import run_figure10

    return run_figure10(workload=workload.id, check_equivalence=False)


@pytest.fixture(scope="session")
def medical_spec():
    """The validated medical bladder-volume specification."""
    from repro.apps.medical import medical_specification

    spec = medical_specification()
    spec.validate()
    return spec


@pytest.fixture(scope="session")
def medical_graph(medical_spec):
    """The medical system's variable-access graph."""
    from repro.graph import AccessGraph

    return AccessGraph.from_specification(medical_spec)


@pytest.fixture(scope="session")
def medical_designs(medical_spec):
    """The paper's three design partitions, keyed ``Design1..3``."""
    from repro.apps.medical import all_designs

    return all_designs(medical_spec)


@pytest.fixture(scope="session")
def fig9(medical_spec):
    """The full Figure 9 sweep (3 designs x 4 models, measured)."""
    from repro.experiments import run_figure9

    return run_figure9(spec=medical_spec)


@pytest.fixture(scope="session")
def fig10(medical_spec):
    """The full Figure 10 sweep (refinement sizes/times, no
    equivalence co-simulation)."""
    from repro.experiments import run_figure10

    return run_figure10(spec=medical_spec, check_equivalence=False)


@pytest.fixture
def flight_dir(tmp_path):
    """A per-test directory for serve flight-recorder dumps: tests that
    provoke crashes, deadlines or open circuits leave nothing in the
    checkout's default ``benchmarks/output``."""
    return str(tmp_path / "flight")
