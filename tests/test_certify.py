"""Tests for the independent schedule certifier (repro.verify.certify).

The adversarial half is the point: hand-built invalid schedules — built
with ``Schedule._append`` (no validation) or by corrupting internals — must
each be rejected with the *expected* rule code, proving the checker has
teeth and does not merely rubber-stamp whatever the kernels emit.
"""

import math

import pytest

from repro.api import SchedulingOptions
from repro.core.flb import flb
from repro.graph.taskgraph import TaskGraph
from repro.machine.model import MachineModel
from repro.schedule.schedule import Schedule
from repro.schedulers import SCHEDULERS
from repro.verify import certify, greedy_flavor
from repro.workloads.gallery import paper_example, simple_diamond, two_chains

GALLERY = [paper_example, simple_diamond, two_chains]


def sequential_schedule(graph, num_procs):
    """Cram every task onto processor 0 in topological order (valid but
    maximally non-greedy on a multi-processor machine)."""
    graph.freeze()
    machine = MachineModel(num_procs)
    s = Schedule(graph, machine)
    for t in graph.topological_order:
        earliest = s.prt(0)
        for pred in graph.preds(t):
            arrival = s.finish_of(pred)  # co-located: no comm delay
            if arrival > earliest:
                earliest = arrival
        s._append(t, 0, earliest)
    return s


class TestGalleryCertification:
    @pytest.mark.parametrize("make_graph", GALLERY)
    @pytest.mark.parametrize("algo", ["flb", "etf", "fcp"])
    @pytest.mark.parametrize("procs", [2, 3, 8])
    def test_gallery_schedules_certify(self, make_graph, algo, procs):
        schedule = SCHEDULERS[algo](make_graph(), MachineModel(procs))
        cert = certify(schedule, flavor=greedy_flavor(algo))
        assert cert.ok, cert.render()
        # FLB/ETF carry the greedy certificate; FCP is structural only.
        assert cert.greedy_checked == (algo in ("flb", "etf"))

    @pytest.mark.parametrize("problem", ["lu", "fft", "stencil"])
    def test_fast_path_flb_carries_greedy_certificate(self, problem):
        from repro.cli import _build_problem

        graph = _build_problem(problem, 150, 1.0, 0)
        cert = certify(flb(graph, MachineModel(4)), flavor="flb")
        assert cert.ok, cert.render()
        assert cert.greedy_checked

    def test_nontrivial_machine_models(self):
        g = paper_example()
        machine = MachineModel(3, comm_scale=2.0, latency=0.5)
        cert = certify(flb(g, machine=machine), flavor="flb")
        assert cert.ok, cert.render()

    def test_greedy_flavor_mapping(self):
        assert greedy_flavor("flb") == "flb"
        assert greedy_flavor("etf") == "etf"
        assert greedy_flavor("fcp") is None
        assert greedy_flavor("mcp") is None

    def test_unknown_flavor_rejected(self):
        s = flb(paper_example(), MachineModel(2))
        with pytest.raises(ValueError):
            certify(s, flavor="dls")


class TestStructuralMutants:
    def test_s001_missing_task(self):
        g = paper_example()
        g.freeze()
        s = Schedule(g, MachineModel(2))
        s._append(0, 0, 0.0)  # only one of eight tasks placed
        cert = certify(s)
        assert not cert.ok
        assert "S001" in cert.codes()
        assert any("not scheduled" in v.message for v in cert.violations)

    def test_s001_duplicate_placement(self):
        g = simple_diamond()
        g.freeze()
        s = flb(g, MachineModel(2))
        # Corrupt: append task 0 a second time behind the schedule's back.
        s._proc_tasks[1].append(0)
        cert = certify(s)
        assert any(
            v.code == "S001" and "scheduled 2 times" in v.message
            for v in cert.violations
        )

    def test_s002_negative_start(self):
        g = simple_diamond()
        g.freeze()
        s = flb(g, MachineModel(2))
        t = s.proc_tasks(0)[0]
        s._start[t] = -1.0
        cert = certify(s)
        assert "S002" in cert.codes()

    def test_s003_wrong_finish(self):
        g = paper_example()
        s = flb(g, MachineModel(3))
        t = s.proc_tasks(0)[0]
        s._finish[t] += 0.5
        cert = certify(s)
        assert "S003" in cert.codes()

    def test_s004_overlap(self):
        g = TaskGraph()
        g.add_task(2.0)
        g.add_task(2.0)
        g.freeze()
        s = Schedule(g, MachineModel(1))
        s._append(0, 0, 0.0)
        # Starts while task 0 is still running on the same processor.
        s._start[1] = 1.0
        s._finish[1] = 3.0
        s._placed[1] = True
        s._num_placed += 1
        s._proc_tasks[0].append(1)
        if s._finish[1] > s._prt[0]:
            s._prt[0] = s._finish[1]
        cert = certify(s)
        assert "S004" in cert.codes()

    def test_s005_comm_delay_violated(self):
        g = TaskGraph()
        g.add_task(1.0)
        g.add_task(1.0)
        g.add_edge(0, 1, 5.0)
        g.freeze()
        s = Schedule(g, MachineModel(2))
        s._append(0, 0, 0.0)
        # Task 1 on the *other* processor at t=1: the message needs 5 more.
        s._append(1, 1, 1.0)
        cert = certify(s)
        assert "S005" in cert.codes()
        assert any("message arrival" in v.message for v in cert.violations)

    def test_s005_ok_when_colocated(self):
        g = TaskGraph()
        g.add_task(1.0)
        g.add_task(1.0)
        g.add_edge(0, 1, 5.0)
        g.freeze()
        s = Schedule(g, MachineModel(2))
        s._append(0, 0, 0.0)
        s._append(1, 0, 1.0)  # same processor: comm is free
        assert certify(s).ok

    def test_s006_makespan_mismatch(self):
        g = paper_example()
        s = flb(g, MachineModel(3))
        s._prt[0] += 5.0  # reported PRT/makespan no longer match placements
        cert = certify(s)
        assert "S006" in cert.codes()

    @staticmethod
    def _chain_schedule():
        g = TaskGraph()
        g.add_task(1.0)
        g.add_task(1.0)
        g.add_edge(0, 1, 1.0)
        return flb(g.freeze(), MachineModel(2))

    def test_s007_nan_times_rejected(self):
        # NaN start/finish with the PRTs kept consistent used to pass every
        # comparison (NaN < x is false) and certify as ok, FLB flavour too.
        s = self._chain_schedule()
        p = s.proc_of(1)
        s._start[1] = s._finish[1] = math.nan
        s._prt[p] = max(
            (s.finish_of(t) for t in s.proc_tasks(p) if t != 1), default=0.0
        )
        cert = certify(s, flavor="flb")
        assert not cert.ok
        assert cert.codes()[0] == "S007"
        assert any(v.code == "S007" and v.task == 1 for v in cert.violations)
        # The checks behind it test the condition for ok, so NaN fails them.
        assert {"S002", "S003", "S006"} <= set(cert.codes())
        assert not cert.greedy_checked

    def test_s007_infinite_times_rejected(self):
        # inf start, finish, PRT and makespan: inf - inf is NaN, so S003 and
        # S006 used to pass this structurally.
        s = self._chain_schedule()
        p = s.proc_of(1)
        s._start[1] = s._finish[1] = math.inf
        s._prt[p] = math.inf
        assert s.makespan == math.inf
        cert = certify(s)
        assert not cert.ok
        assert cert.codes()[:3] == ("S007", "S007", "S007")
        assert any("makespan" in v.message for v in cert.violations)

    def test_certificate_shape(self):
        g = paper_example()
        s = flb(g, MachineModel(3))
        s._prt[0] += 5.0
        doc = certify(s).to_dict()
        assert doc["ok"] is False
        assert doc["violations"][0]["code"] == "S006"
        text = certify(s).render()
        assert "S006" in text


class TestGreedyMutants:
    def test_f001_sequential_flb_schedule_rejected(self):
        """A valid-but-serial schedule passes structurally and fails F001."""
        s = sequential_schedule(paper_example(), 2)
        structural = certify(s)
        assert structural.ok, structural.render()
        cert = certify(s, flavor="flb")
        assert not cert.ok
        assert cert.codes() == ("F001",)

    def test_f001_also_fires_for_etf_flavor(self):
        s = sequential_schedule(paper_example(), 2)
        cert = certify(s, flavor="etf")
        assert cert.codes() == ("F001",)

    def test_f002_ep_preferred_tie_rejected(self):
        """FLB with the tie rule ablated picks the EP task on a tie; the
        certificate catches exactly that (F002, not F001 — the start time
        is still greedy-minimal)."""
        g = TaskGraph()
        a = g.add_task(1.0, name="a")
        c = g.add_task(1.0, name="c")
        g.add_task(2.0, name="e")
        g.add_task(0.5, name="d")
        g.add_edge(a, c, 1.0)
        mutant = flb(g, MachineModel(2), prefer_non_ep_on_tie=False)
        cert = certify(mutant, flavor="flb")
        assert not cert.ok
        assert cert.codes() == ("F002",)
        # The same schedule is fine under the plain ETF obligation...
        assert certify(mutant, flavor="etf").ok
        # ...and the faithful FLB run passes the full FLB certificate.
        g2 = TaskGraph()
        a2 = g2.add_task(1.0, name="a")
        c2 = g2.add_task(1.0, name="c")
        g2.add_task(2.0, name="e")
        g2.add_task(0.5, name="d")
        g2.add_edge(a2, c2, 1.0)
        assert certify(flb(g2, MachineModel(2)), flavor="flb").ok

    def test_greedy_skipped_on_structural_failure(self):
        g = paper_example()
        s = flb(g, MachineModel(3))
        s._prt[0] += 5.0
        cert = certify(s, flavor="flb")
        assert not cert.ok
        assert not cert.greedy_checked
        assert all(v.code.startswith("S") for v in cert.violations)

    def test_greedy_skipped_on_incomplete_schedule(self):
        g = paper_example()
        g.freeze()
        s = Schedule(g, MachineModel(2))
        cert = certify(s, flavor="flb")
        assert not cert.greedy_checked


class TestScheduleDelegation:
    def test_violations_messages_preserved(self):
        g = paper_example()
        g.freeze()
        s = Schedule(g, MachineModel(2))
        msgs = s.violations()
        assert len(msgs) == g.num_tasks
        assert all("not scheduled" in m for m in msgs)

    def test_validate_raises_with_codeful_message(self):
        from repro.exceptions import InvalidScheduleError

        g = TaskGraph()
        g.add_task(1.0)
        g.add_task(1.0)
        g.add_edge(0, 1, 5.0)
        g.freeze()
        s = Schedule(g, MachineModel(2))
        s._append(0, 0, 0.0)
        s._append(1, 1, 1.0)
        with pytest.raises(InvalidScheduleError, match="message arrival"):
            s.validate()

    def test_all_schedulers_still_validate(self):
        g = paper_example()
        for name, scheduler in SCHEDULERS.items():
            assert scheduler(g, MachineModel(3)).violations() == [], name


class TestBatchCertification:
    def test_certified_flag_and_cache_gating(self):
        from repro.batch import BatchJob, schedule_many
        from repro.resultcache import ResultCache

        g = paper_example()
        cache = ResultCache(16)
        jobs = [BatchJob(graph=g, procs=2, algo="flb")]
        certified = SchedulingOptions(certify=True)
        first = schedule_many(jobs, workers=1, options=certified, cache=cache)[0]
        assert first.ok and first.certified and not first.cached
        again = schedule_many(jobs, workers=1, options=certified, cache=cache)[0]
        assert again.cached and again.certified
        # certify is part of the key: the uncertified request re-runs.
        plain = schedule_many(jobs, workers=1, cache=cache,
                              options=SchedulingOptions(certify=False))[0]
        assert not plain.cached and not plain.certified

    def test_invalid_schedule_classification(self, monkeypatch):
        import repro.core.flb_array as flb_array_module
        from repro.batch import INVALID_SCHEDULE, BatchJob, schedule_many

        def broken(graph, machine, **kwargs):
            return sequential_schedule(graph, machine.num_procs)

        monkeypatch.setattr(flb_array_module, "flb_array", broken)
        res = schedule_many(
            [BatchJob(graph=paper_example(), procs=2, algo="flb")],
            workers=1, options=SchedulingOptions(certify=True),
        )[0]
        assert not res.ok
        assert res.error_kind == INVALID_SCHEDULE
        assert "F001" in res.error
        assert not res.certified

    def test_uncertified_failures_not_cached(self, monkeypatch):
        import repro.core.flb_array as flb_array_module
        from repro.batch import BatchJob, schedule_many
        from repro.resultcache import ResultCache

        def broken(graph, machine, **kwargs):
            return sequential_schedule(graph, machine.num_procs)

        monkeypatch.setattr(flb_array_module, "flb_array", broken)
        cache = ResultCache(16)
        jobs = [BatchJob(graph=paper_example(), procs=2, algo="flb")]
        schedule_many(jobs, workers=1, options=SchedulingOptions(certify=True), cache=cache)
        assert len(cache) == 0

    def test_multiworker_certify(self):
        from repro.batch import BatchJob, schedule_many

        jobs = [
            BatchJob(graph=paper_example(), procs=p, algo=a)
            for p in (2, 3) for a in ("flb", "etf", "fcp")
        ]
        results = schedule_many(jobs, workers=2, options=SchedulingOptions(certify=True))
        assert all(r.ok and r.certified for r in results)
