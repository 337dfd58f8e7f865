"""The workload registry: entry integrity, negative paths, the
``repro workloads`` / ``validate-hdl`` CLIs, and the per-workload
golden reports — figures, partitioner results and the default explore
campaign (refresh with ``pytest --update-golden``)."""

import re
from pathlib import Path

import pytest

from repro.apps.workloads import (
    Workload,
    WorkloadError,
    WorkloadRegistry,
    default_registry,
    resolve_workload,
)
from repro.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"
FIGURE10_ARTIFACT = (
    Path(__file__).parent.parent / "benchmarks" / "output" / "figure10.txt"
)


class TestRegistry:
    def test_six_entries_in_registration_order(self):
        registry = default_registry()
        assert registry.names() == [
            "medical", "answering", "pcm_pwm",
            "pipeline", "mesh", "controller",
        ]

    def test_resolve_default_is_medical(self):
        assert resolve_workload(None).id == "medical"

    def test_resolve_passes_workload_through(self):
        workload = default_registry().get("pcm_pwm")
        assert resolve_workload(workload) is workload

    def test_contains_and_len(self):
        registry = default_registry()
        assert "pcm_pwm" in registry
        assert "nope" not in registry
        assert len(registry) == 6

    def test_every_entry_validates(self):
        for workload, summary, error in default_registry().validate_all():
            assert error is None, f"{workload.id}: {error}"
            assert "behaviors" in summary


class TestWorkloadEntry:
    def test_spec_is_fresh_and_valid(self, workload):
        first = workload.spec()
        second = workload.spec()
        assert first is not second
        assert first.name == second.name

    def test_default_design_in_catalog(self, workload):
        spec = workload.spec()
        designs = workload.designs(spec)
        assert workload.default_design in designs
        for partition in designs.values():
            assert set(partition.components()) <= {"PROC", "ASIC"}

    def test_input_vectors_are_deterministic(self, workload):
        assert workload.input_vectors(3) == workload.input_vectors(3)
        vectors = workload.input_vectors(1, count=4)
        assert len(vectors) == 4

    def test_validate_summary(self, workload):
        summary = workload.validate()
        assert workload.id not in summary  # summary is id-free prose
        assert "completed" in summary


class TestNegativePaths:
    def _dummy(self, workload_id="dup"):
        medical = default_registry().get("medical")
        return Workload(
            id=workload_id,
            title=medical.title,
            category="test",
            description="clone for registry tests",
            spec_factory=medical.spec_factory,
            designs_factory=medical.designs_factory,
            default_inputs=medical.default_inputs,
            default_design=medical.default_design,
        )

    def test_duplicate_id_rejected(self):
        registry = WorkloadRegistry()
        registry.add(self._dummy())
        with pytest.raises(WorkloadError, match="duplicate workload"):
            registry.add(self._dummy())

    def test_unknown_id_lists_choices(self):
        with pytest.raises(WorkloadError, match="choose from"):
            default_registry().get("zeppelin")

    def test_non_terminating_spec_flagged(self):
        from repro.spec.builder import (
            assign, leaf, seq, spec, transition, wait_for,
        )
        from repro.spec.expr import var
        from repro.spec.types import int_type
        from repro.spec.variable import Role, variable

        def forever():
            # the wait makes every lap cost scheduler steps, so the
            # kernel's max_steps budget (not wall-clock) catches it
            looped = spec(
                "Forever",
                seq(
                    "top",
                    [leaf("spin",
                          assign(var("x"), var("x") + 1), wait_for(1))],
                    transitions=[transition("spin", None, "spin")],
                ),
                variables=[
                    variable("x", int_type(16), init=0, role=Role.OUTPUT),
                ],
            )
            looped.validate()
            return looped

        bad = Workload(
            id="forever",
            title="never completes",
            category="test",
            description="terminates never",
            spec_factory=forever,
            designs_factory=lambda spec_: {},
            default_inputs={},
            default_design="none",
        )
        with pytest.raises(WorkloadError, match="does not terminate"):
            bad.validate(max_steps=500)


class TestCampaignCliRejectsUnknownWorkload:
    """Each of the five campaign CLIs must exit 2 with the registry's
    choose-from message, before any campaign work starts."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["figure9", "--workload", "zeppelin"],
            ["figure10", "--workload", "zeppelin"],
            ["robustness", "--workload", "zeppelin", "-o", ""],
            ["sweep", "--workload", "zeppelin", "-o", ""],
            ["explore", "--workload", "zeppelin", "-o", ""],
        ],
        ids=["figure9", "figure10", "robustness", "sweep", "explore"],
    )
    def test_exit_2_with_message(self, argv, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "unknown workload 'zeppelin'" in err
        assert "choose from" in err


class TestWorkloadsCli:
    def test_list_table(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        for name in default_registry().names():
            assert name in out

    def test_describe(self, capsys):
        assert main(["workloads", "--describe", "pcm_pwm"]) == 0
        out = capsys.readouterr().out
        assert "PCM-to-PWM" in out
        assert "Design1 (default)" in out
        assert "invariants" in out

    def test_describe_unknown_exits_2(self, capsys):
        assert main(["workloads", "--describe", "zeppelin"]) == 2
        assert "choose from" in capsys.readouterr().err

    def test_validate(self, capsys):
        assert main(["workloads", "--validate"]) == 0
        out = capsys.readouterr().out
        assert "6/6 workloads valid" in out


class TestValidateHdl:
    def test_cli_smallest_workload(self, capsys):
        # pipeline: 1 design, sequential spec — the cheapest full pass
        assert main(["validate-hdl", "--workload", "pipeline"]) == 0
        captured = capsys.readouterr()
        assert "External validation: workload pipeline" in captured.out
        assert "mismatch" not in captured.out

    def test_concurrent_spec_skips_with_notice(self):
        from repro.export.validate import validate_workload

        report = validate_workload("mesh")
        assert report.ok
        by_stage = {(c.backend, c.stage): c for c in report.checks
                    if c.design == "-"}
        assert by_stage[("c", "co-simulate")].status == "skipped"
        assert "concurrent" in by_stage[("c", "co-simulate")].detail

    def test_mismatch_is_reported(self, monkeypatch):
        # sabotage the kernel reference so the (correct) C program
        # disagrees: the harness must say mismatch, not ok
        import repro.export.validate as validate_mod

        real = validate_mod._reference_outputs

        def skewed(spec, inputs, max_steps):
            outputs = real(spec, inputs, max_steps)
            return {name: int(value) + 1 for name, value in outputs.items()}

        monkeypatch.setattr(validate_mod, "_reference_outputs", skewed)
        report = validate_mod.validate_workload("pipeline", models=())
        c_check = next(
            c for c in report.checks
            if c.backend == "c" and c.stage == "co-simulate"
        )
        if c_check.status == "skipped":
            pytest.skip(c_check.detail)
        assert c_check.status == "mismatch"
        assert "kernel=" in c_check.detail
        assert not report.ok


def _normalize_fig10(text: str) -> str:
    """Blank the wall-clock milliseconds Figure 10 embeds and collapse
    the column padding they stretch — sizes and ratios are
    deterministic, timings (and hence cell widths) are not."""
    text = re.sub(r"/\d+ms", "/--ms", text)
    text = re.sub(r"-{3,}", "--", text)   # rule widths follow cell widths
    return re.sub(r" +", " ", text)


class TestGoldenReports:
    def _check(self, request, name: str, rendered: str) -> None:
        path = GOLDEN_DIR / name
        if request.config.getoption("--update-golden"):
            GOLDEN_DIR.mkdir(exist_ok=True)
            path.write_text(rendered)
            return
        assert path.exists(), (
            f"missing golden {path}; run pytest --update-golden"
        )
        assert rendered == path.read_text(), (
            f"{name} drifted from the committed golden; inspect the diff "
            "and refresh with pytest --update-golden if intentional"
        )

    def test_figure9_golden(self, request, workload, workload_fig9):
        self._check(
            request,
            f"{workload.id}_figure9.txt",
            workload_fig9.render() + "\n",
        )

    def test_figure10_golden(self, request, workload, workload_fig10):
        self._check(
            request,
            f"{workload.id}_figure10.txt",
            _normalize_fig10(workload_fig10.render() + "\n"),
        )

    def test_committed_figure10_artifact_matches_golden(self):
        """``benchmarks/output/figure10.txt`` embeds timings and
        equivalence flags, so no byte comparison covers it; with both
        stripped its size and ratio cells must equal the medical
        golden, or the artifact has drifted from the code."""
        artifact = re.sub(r" OK(?= *\|)", "", FIGURE10_ARTIFACT.read_text())
        assert _normalize_fig10(artifact) == (
            GOLDEN_DIR / "medical_figure10.txt"
        ).read_text()

    def test_partitioners_golden(self, request, workload):
        self._check(
            request,
            f"{workload.id}_partitioners.txt",
            _render_partitioners(workload.spec()),
        )

    @pytest.mark.parametrize(
        "workload_id", ["answering", "pcm_pwm", "pipeline", "mesh", "controller"]
    )
    def test_explore_golden(self, request, workload_id):
        """The default campaign per workload; medical's is the committed
        ``benchmarks/output/explore_frontier.txt``."""
        from repro.experiments.explore import run_explore

        self._check(
            request,
            f"{workload_id}_explore.txt",
            run_explore(workload=workload_id).render() + "\n",
        )


def _render_partitioners(spec) -> str:
    """Each partitioner's result and objective value on ``spec``:
    greedy, KL seeded from greedy, annealing at seed 1996 and one
    re-anneal (seed 7) starting from that result."""
    from repro.exec import canonical_partition
    from repro.graph import AccessGraph
    from repro.partition import (
        annealed_partition,
        greedy_partition,
        kl_partition,
        partition_cost,
    )

    graph = AccessGraph.from_specification(spec)
    greedy = greedy_partition(spec, graph=graph)
    annealed = annealed_partition(spec, graph=graph, seed=1996)
    results = [
        ("greedy", greedy),
        ("kl<greedy", kl_partition(spec, graph=graph, seed_partition=greedy)),
        ("annealed@1996", annealed),
        ("reanneal@7<annealed@1996", annealed_partition(
            spec, graph=graph, seed=7, seed_partition=annealed,
        )),
    ]
    lines = []
    for recipe, partition in results:
        cost = partition_cost(graph, partition, expected_components=2)
        lines.append(f"{recipe} cost={cost!r}")
        lines.append(f"  {canonical_partition(partition)}")
    return "\n".join(lines) + "\n"
