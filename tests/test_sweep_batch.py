"""``repro sweep --batch``: the ``batch-cell`` task refines and
compiles one (design, model, protocol) once and runs every seed on one
reused simulator pair.  Its per-seed cells must be exactly what the
per-seed ``sweep-cell`` jobs report, and the batched sweep must render
byte-identically to the serial one."""

import hashlib
import os

import pytest

import repro
from repro.exec import canonical_partition, canonical_spec_text
from repro.exec.campaigns import get_task
from repro.exec.job import code_version_salt


@pytest.fixture(scope="module")
def base_params(medical_spec):
    from repro.apps.medical import MEDICAL_INPUTS, all_designs

    catalog = all_designs(medical_spec)
    return {
        "spec": canonical_spec_text(medical_spec),
        "partition": canonical_partition(catalog["Design1"]),
        "design": "Design1",
        "model": "Model3",
        "protocol": "handshake",
        "inputs": dict(MEDICAL_INPUTS),
        "limits": None,
    }


class TestBatchCell:
    def test_batch_cell_payload_matches_sweep_cells(self, base_params):
        seeds = [0, 1, 2]
        batched = get_task("batch-cell")(dict(base_params, seeds=seeds))
        assert [cell["seed"] for cell in batched["cells"]] == seeds
        for seed, cell in zip(seeds, batched["cells"]):
            serial = get_task("sweep-cell")(dict(base_params, seed=seed))
            assert cell["kernel"] == serial["kernel"] == "compiled"
            for key in ("refined_lines", "equivalent", "inputs", "steps"):
                assert cell[key] == serial[key], key

    def test_failing_seed_is_reported_and_the_rest_still_run(
        self, base_params
    ):
        limits = {"max_steps": 50, "max_delta": 10_000, "wall_clock": None}
        payload = get_task("batch-cell")(
            dict(base_params, seeds=[0, 1], limits=limits)
        )
        assert [cell["seed"] for cell in payload["cells"]] == [0, 1]
        for cell in payload["cells"]:
            assert set(cell) == {"seed", "error"}
            assert cell["error"].startswith(
                "SimulationLimitExceeded: simulation exceeded max_steps=50"
            )

    def test_run_sweep_batched_table_is_byte_identical(self, medical_spec):
        from repro.experiments.sweep import run_sweep

        kwargs = dict(
            spec=medical_spec,
            designs=["Design1"],
            models=["Model1", "Model2"],
            seeds=[0, 1, 2],
        )
        serial = run_sweep(**kwargs)
        batched = run_sweep(batch=True, **kwargs)
        assert batched.render() == serial.render()
        assert batched.as_json() == serial.as_json()
        assert batched.kernel_counts() == {"compiled": 6}


class TestSimulateCellStimuli:
    def test_each_vector_matches_its_single_run(self, medical_spec):
        from repro.apps.medical import MEDICAL_INPUTS

        text = canonical_spec_text(medical_spec)
        vectors = [dict(MEDICAL_INPUTS), {}, dict(MEDICAL_INPUTS)]
        task = get_task("simulate-cell")
        payload = task({"spec": text, "stimuli": vectors})
        assert payload["kernel"] == "compiled"
        assert len(payload["lanes"]) == len(vectors)
        for inputs, lane in zip(vectors, payload["lanes"]):
            single = task({"spec": text, "inputs": inputs})
            assert lane == {
                key: single[key] for key in ("completed", "steps", "outputs")
            }

    def test_first_error_propagates(self, medical_spec):
        from repro.errors import SimulationError

        task = get_task("simulate-cell")
        with pytest.raises(SimulationError, match="unknown inputs"):
            task(
                {
                    "spec": canonical_spec_text(medical_spec),
                    "stimuli": [{}, {"no_such_port": 1}],
                }
            )


def test_code_version_salt_covers_every_module():
    root = os.path.dirname(os.path.abspath(repro.__file__))

    def digest(skip=None):
        value = hashlib.sha256()
        for dirpath, dirnames, filenames in sorted(os.walk(root)):
            dirnames.sort()
            for filename in sorted(filenames):
                if not filename.endswith(".py"):
                    continue
                path = os.path.join(dirpath, filename)
                rel = os.path.relpath(path, root)
                if rel == skip:
                    continue
                value.update(rel.encode())
                with open(path, "rb") as handle:
                    value.update(handle.read())
        return value.hexdigest()

    equivalence_rel = os.path.join("sim", "equivalence.py")
    assert os.path.exists(os.path.join(root, equivalence_rel))
    # the salt is exactly the all-files digest, and dropping one module
    # changes it: editing any source file orphans every cached result
    assert code_version_salt() == digest()
    assert digest(skip=equivalence_rel) != digest()
