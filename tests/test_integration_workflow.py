"""End-to-end integration: the full user workflow through the public API.

generate -> analyze -> schedule -> validate -> persist -> reload ->
re-execute -> perturb -> inspect.  One test per workflow stage would hide
inter-stage bugs; this file deliberately chains them.
"""

import pytest

from repro import SchedulingOptions, schedule_graph
from repro.graph import (
    ccr,
    critical_path_length,
    from_json,
    to_json,
    width,
)
from repro.machine import MachineModel
from repro.metrics import efficiency, speedup, summarize
from repro.schedule import (
    critical_tasks,
    idle_profile,
    load_schedule,
    render_gantt,
    render_gantt_svg,
    save_schedule,
    slack_times,
)
from repro.sim import execute, execute_contended, execute_perturbed
from repro.util.rng import make_rng
from repro.workloads import cholesky, wavefront


@pytest.fixture(scope="module")
def workflow(tmp_path_factory):
    """Run the whole pipeline once; tests inspect its artefacts."""
    tmp = tmp_path_factory.mktemp("workflow")
    graph = cholesky(6, make_rng(33), ccr=2.0)

    # Round-trip the graph itself first.
    graph = from_json(to_json(graph))

    schedule = schedule_graph(
        graph, SchedulingOptions(machine=MachineModel(4), algorithm="flb")
    )
    schedule.validate()

    path = tmp / "schedule.json"
    save_schedule(schedule, path)
    reloaded = load_schedule(path)

    return {
        "graph": graph,
        "schedule": schedule,
        "reloaded": reloaded,
        "path": path,
    }


class TestWorkflow:
    def test_graph_roundtrip_preserved_analysis(self, workflow):
        g = workflow["graph"]
        assert width(g) >= 1
        assert critical_path_length(g) > 0
        assert ccr(g) == pytest.approx(2.0, rel=1e-9)

    def test_reloaded_schedule_identical(self, workflow):
        s, r = workflow["schedule"], workflow["reloaded"]
        assert r.makespan == pytest.approx(s.makespan)
        for t in workflow["graph"].tasks():
            assert r.proc_of(t) == s.proc_of(t)
            assert r.start_of(t) == pytest.approx(s.start_of(t))

    def test_replay_matches_after_reload(self, workflow):
        result = execute(workflow["reloaded"])
        assert result.matches(workflow["reloaded"])

    def test_metrics_consistent(self, workflow):
        s = workflow["schedule"]
        d = summarize(s)
        assert d["makespan"] == pytest.approx(s.makespan)
        assert speedup(s) == pytest.approx(d["speedup"])
        assert 0 < efficiency(s) <= 1

    def test_analysis_on_reloaded(self, workflow):
        r = workflow["reloaded"]
        slack = slack_times(r)
        assert min(slack) == pytest.approx(0.0, abs=1e-9)
        assert critical_tasks(r)
        profile = idle_profile(r)
        total = (
            sum(profile.busy)
            + profile.total_idle
        )
        assert total == pytest.approx(r.makespan * r.num_procs)

    def test_renderings(self, workflow):
        s = workflow["schedule"]
        assert "P0" in render_gantt(s)
        assert render_gantt_svg(s).startswith("<svg")

    def test_degradation_models_compose(self, workflow):
        s = workflow["reloaded"]
        perturbed = execute_perturbed(s, make_rng(1), 0.2, 0.2)
        contended = execute_contended(s, bandwidth=1.0)
        assert perturbed.makespan > 0
        assert contended.makespan >= s.makespan - 1e-9

    def test_cross_algorithm_consistency(self, workflow):
        """Every registry algorithm schedules the same reloaded graph; all
        valid, all within a sane quality band of each other."""
        from repro.schedulers import SCHEDULERS

        g = workflow["graph"]
        spans = {}
        for algo in sorted(SCHEDULERS):
            s = SCHEDULERS[algo](g, MachineModel(4))
            assert s.violations() == [], algo
            spans[algo] = s.makespan
        assert max(spans.values()) <= 2.5 * min(spans.values())


class TestHeterogeneousWorkflow:
    def test_full_pipeline_on_skewed_machine(self, tmp_path):
        graph = wavefront(8, make_rng(44), ccr=1.0)
        machine = MachineModel(3, speeds=(2.0, 1.0, 1.0))
        s = schedule_graph(graph, SchedulingOptions(algorithm="heft"), machine=machine)
        s.validate()
        path = tmp_path / "hetero.json"
        save_schedule(s, path)
        r = load_schedule(path)
        assert r.machine == machine
        assert execute(r).makespan <= r.makespan + 1e-6
