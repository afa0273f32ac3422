"""End-to-end tests for the machine-aware scheduling plane.

:class:`repro.MachineModel` is a first-class member of the public API:
it rides inside :class:`repro.SchedulingOptions`, keys the result cache
and the serve coalescing map via :meth:`MachineModel.fingerprint`, is
accepted and echoed by ``POST /v1/schedule``, and is certified by the
related-machines replay certificate (F003).  These tests pin the plane
together: fingerprint canonicality, the cache-key regression (equal
``num_procs`` but different speeds must never share an entry), exact
homogeneous bit-identity between ``BatchJob(procs=P)``, the explicit
model and a direct scheduler call, the warm-start machine-mismatch cold
fallback, the
adversarial F003 mutant matrix on heterogeneous machines, and the HTTP
round-trip.
"""

import json
import urllib.error
import urllib.request

import pytest

from repro import MachineModel, SchedulingOptions, schedule_graph
from repro.batch import BatchJob, _cache_key, schedule_many
from repro.graph.io import to_json
from repro.incremental import base_cache
from repro.resultcache import make_key
from repro.schedulers import SCHEDULERS, heft
from repro.serve import BackgroundServer, ServeConfig
from repro.util.rng import make_rng
from repro.verify import certify, lint_machine
from repro.workloads import layered_random, lu, stencil
from tests.test_fastpath_equivalence import assert_bit_identical
from tests.test_incremental import _rebuild

HETERO_MACHINES = [
    MachineModel(3, speeds=(2.0, 1.0, 0.5)),
    MachineModel(4, comm_scale=2.0, latency=0.5, speeds=(1.0, 1.0, 2.0, 4.0)),
    MachineModel(2, comm_scale=0.25, speeds=(1.0, 3.0)),
]


class TestFingerprint:
    def test_equal_models_fingerprint_equal(self):
        a = MachineModel(4, comm_scale=2.0, latency=0.5, speeds=(1.0, 2.0, 1.0, 4.0))
        b = MachineModel(4, comm_scale=2.0, latency=0.5, speeds=(1.0, 2.0, 1.0, 4.0))
        assert a.fingerprint() == b.fingerprint()
        assert a.fingerprint() == a.fingerprint()  # memo is stable

    def test_every_field_perturbation_changes_digest(self):
        base = MachineModel(4, comm_scale=2.0, latency=0.5)
        variants = [
            MachineModel(5, comm_scale=2.0, latency=0.5),
            MachineModel(4, comm_scale=3.0, latency=0.5),
            MachineModel(4, comm_scale=2.0, latency=0.25),
            MachineModel(4, comm_scale=2.0, latency=0.5,
                         speeds=(1.0, 1.0, 1.0, 2.0)),
        ]
        digests = {m.fingerprint() for m in [base, *variants]}
        assert len(digests) == len(variants) + 1

    def test_explicit_uniform_speeds_differ_from_homogeneous(self):
        # Mirrors `==`: an explicit all-ones vector is a distinct model
        # (graphlint flags it as M004 for exactly this reason).
        implicit = MachineModel(3)
        explicit = MachineModel(3, speeds=(1.0, 1.0, 1.0))
        assert implicit != explicit
        assert implicit.fingerprint() != explicit.fingerprint()
        assert any(i.code == "M004" for i in lint_machine(explicit).issues)

    def test_digest_shape(self):
        fp = MachineModel(2).fingerprint()
        assert len(fp) == 32
        int(fp, 16)  # hex


class TestDictRoundTrip:
    @pytest.mark.parametrize("machine", [MachineModel(4), *HETERO_MACHINES])
    def test_round_trip(self, machine):
        again = MachineModel.from_dict(json.loads(json.dumps(machine.to_dict())))
        assert again == machine
        assert again.fingerprint() == machine.fingerprint()

    def test_rejects_unknown_keys(self):
        with pytest.raises(ValueError):
            MachineModel.from_dict({"num_procs": 2, "cores": 8})

    def test_rejects_non_mapping(self):
        with pytest.raises(ValueError):
            MachineModel.from_dict([2])

    def test_rejects_bool_num_procs(self):
        with pytest.raises(ValueError):
            MachineModel.from_dict({"num_procs": True})

    def test_rejects_bad_speeds(self):
        with pytest.raises(ValueError):
            MachineModel.from_dict({"num_procs": 2, "speeds": [1.0, "fast"]})


class TestCacheKeyRegression:
    """Same num_procs, different machine → different cache entries.

    The pre-machine-plane key was ``(fingerprint, procs, algo, validate,
    certify, kernel)``: two requests for P=4 with different speed vectors
    collided and the second caller got the first caller's schedule.  The
    machine fingerprint now rides in the key.
    """

    FP = "deadbeef" * 8

    def _key(self, machine):
        return make_key(self.FP, machine, "flb", False, False)

    def test_same_procs_different_speeds_never_collide(self):
        a = self._key(MachineModel(4, speeds=(1.0, 1.0, 1.0, 1.0)))
        b = self._key(MachineModel(4, speeds=(2.0, 1.0, 1.0, 1.0)))
        assert a != b

    def test_comm_scale_and_latency_fold_in(self):
        plain = self._key(MachineModel(4))
        scaled = self._key(MachineModel(4, comm_scale=2.0))
        lagged = self._key(MachineModel(4, latency=0.5))
        assert len({plain, scaled, lagged}) == 3

    def test_legacy_integer_aliases_homogeneous_model(self):
        # The two spellings of the paper machine share one entry.
        graph = stencil(5, 4, make_rng(3), ccr=0.5)
        by_procs, by_machine = (
            _cache_key(job, False, False, {}, None)
            for job in (BatchJob(graph=graph, procs=4),
                        BatchJob(graph=graph, machine=MachineModel(4)))
        )
        assert by_procs == by_machine
        assert by_procs == make_key(
            graph.fingerprint(), MachineModel(4), "flb", False, False
        )

    def test_mismatched_num_procs_rejected(self):
        # The key has no procs slot; a job whose procs disagrees with its
        # machine is refused before any key is built.
        with pytest.raises(ValueError):
            BatchJob(graph=None, procs=4, machine=MachineModel(3))


class TestHomogeneousBitIdentity:
    """``machine=MachineModel(P)`` is bit-identical to a direct scheduler
    call and to ``BatchJob(procs=P)`` — the explicit model must not perturb
    the paper runs."""

    @pytest.mark.parametrize("algo", ["flb", "etf", "mcp", "heft"])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_schedule_graph(self, algo, seed):
        graph = layered_random(5, 6, rng=make_rng(seed))
        modern = schedule_graph(
            graph, SchedulingOptions(machine=MachineModel(4), algorithm=algo)
        )
        direct = SCHEDULERS[algo](graph, MachineModel(4))
        assert_bit_identical(direct, modern, f"{algo}/seed{seed}")

    def test_schedule_many_machine_job(self):
        graph = stencil(5, 4, make_rng(3), ccr=0.5)
        (by_procs,) = schedule_many([BatchJob(graph=graph, procs=4)], workers=1)
        (by_machine,) = schedule_many(
            [BatchJob(graph=graph, machine=MachineModel(4))], workers=1
        )
        assert by_procs.ok and by_machine.ok
        assert by_procs.makespan == by_machine.makespan
        assert by_procs.procs == by_machine.procs == 4


class TestHeterogeneousBatch:
    def test_hetero_jobs_round_trip(self):
        graph = lu(6, make_rng(1), ccr=1.0)
        machine = MachineModel(3, speeds=(2.0, 1.0, 0.5))
        results = schedule_many(
            [
                BatchJob(graph=graph, machine=machine, algo="heft"),
                BatchJob(graph=graph, procs=3, algo="heft"),
            ],
            workers=1,
            options=SchedulingOptions(certify=True),
        )
        assert all(r.ok and r.certified for r in results)
        direct = heft(graph, machine=machine)
        assert results[0].makespan == direct.makespan

    def test_pool_workers_carry_machine(self):
        # The worker payload serialises the machine; a heterogeneous job
        # must come back identical to the inline run.
        graph = lu(6, make_rng(2), ccr=1.0)
        machine = MachineModel(3, comm_scale=2.0, speeds=(1.0, 2.0, 4.0))
        (pooled,) = schedule_many(
            [BatchJob(graph=graph, machine=machine, algo="heft")], workers=2
        )
        assert pooled.ok
        assert pooled.makespan == heft(graph, machine=machine).makespan


class TestWarmStartMachineMismatch:
    def test_options_level_cold_fallback(self):
        """A warm base built for one machine never serves another: the
        kernel reports ``machine-mismatch`` and reruns cold, bit-identical
        to a fresh run on the requested machine."""
        base_cache().clear()
        g = stencil(6, 15, make_rng(30))
        exit_task = g.exit_tasks[0]
        mutant = _rebuild(g, comp={exit_task: g.comp(exit_task) * 0.5})
        opts_a = SchedulingOptions(machine=MachineModel(4), warm_start=True)
        schedule_graph(g, opts_a)  # populates the base LRU on machine A
        opts_b = SchedulingOptions(
            machine=MachineModel(4, comm_scale=2.0), warm_start=True,
        )
        stats = {}
        warm = schedule_graph(mutant, opts_b, warm_stats=stats)
        assert stats.get("fallback") == "machine-mismatch"
        cold = schedule_graph(
            _rebuild(mutant),
            SchedulingOptions(machine=MachineModel(4, comm_scale=2.0)),
        )
        assert_bit_identical(cold, warm, "machine-mismatch fallback")
        base_cache().clear()


def _replay_with_delay(sched, victim, delta):
    """A structurally valid copy of ``sched`` with ``victim`` started
    ``delta`` later.  Rebuilt through ``Schedule._append`` so the internal
    PRT memo stays consistent — the mutant must survive the structural
    rules and fail only the F003 replay."""
    from repro.schedule.schedule import Schedule

    graph = sched.graph
    out = Schedule(graph, sched.machine)
    order = sorted(
        graph.tasks(), key=lambda t: (sched.start_of(t), sched.proc_of(t))
    )
    for t in order:
        start = sched.start_of(t) + (delta if t == victim else 0.0)
        out._append(t, sched.proc_of(t), start)
    return out


class TestF003ReplayCertificate:
    """The related-machines replay certificate: genuine HEFT output passes
    on every machine in the matrix; hand-delayed mutants are rejected."""

    @pytest.mark.parametrize("machine", [MachineModel(4), *HETERO_MACHINES])
    @pytest.mark.parametrize("seed", [0, 3])
    def test_genuine_heft_certifies(self, machine, seed):
        graph = layered_random(5, 6, rng=make_rng(seed))
        cert = certify(heft(graph, machine=machine), flavor="heft")
        assert cert.ok, cert.render()
        assert cert.greedy_checked

    @pytest.mark.parametrize("machine", HETERO_MACHINES)
    def test_delayed_task_mutant_rejected(self, machine):
        graph = layered_random(4, 5, rng=make_rng(11))
        s = heft(graph, machine=machine)
        # Delay the last task on the busiest processor.  The mutant stays
        # structurally valid (no overlap, finish = start + duration) but
        # the placement is no longer the earliest HEFT finish.
        proc = s.proc_of(
            max(range(graph.num_tasks), key=lambda t: s.finish_of(t))
        )
        victim = s.proc_tasks(proc)[-1]
        cert = certify(_replay_with_delay(s, victim, 5.0), flavor="heft")
        assert not cert.ok
        assert "F003" in cert.codes()

    def test_mutant_rejected_on_homogeneous_machine(self):
        graph = lu(6, make_rng(5), ccr=1.0)
        s = heft(graph, machine=MachineModel(4))
        victim = s.proc_tasks(s.proc_of(graph.exit_tasks[0]))[-1]
        cert = certify(_replay_with_delay(s, victim, 3.0), flavor="heft")
        assert not cert.ok
        assert "F003" in cert.codes()

    def test_structural_violations_gate_f003(self):
        # F003 is meaningless on a structurally broken schedule; the
        # certifier must report the structural code alone.
        graph = lu(6, make_rng(6), ccr=1.0)
        s = heft(graph, machine=MachineModel(3))
        t = s.proc_tasks(0)[0]
        s._finish[t] += 0.5  # finish no longer start + duration
        cert = certify(s, flavor="heft")
        assert not cert.ok
        assert "F003" not in cert.codes()

    def test_flb_flavor_unaffected(self):
        # The greedy FLB certificate still runs through the old path.
        graph = lu(6, make_rng(7), ccr=1.0)
        from repro.core.flb import flb

        cert = certify(flb(graph, MachineModel(4)), flavor="flb")
        assert cert.ok, cert.render()


class TestServeMachine:
    def _post(self, base, path, payload):
        req = urllib.request.Request(
            base + path, data=json.dumps(payload).encode(),
            headers={"Content-Type": "application/json"}, method="POST",
        )
        try:
            with urllib.request.urlopen(req, timeout=30) as resp:
                return resp.status, json.loads(resp.read())
        except urllib.error.HTTPError as err:
            return err.code, json.loads(err.read())

    def _graph_doc(self):
        return json.loads(to_json(lu(6, make_rng(0), ccr=1.0)))

    def test_machine_round_trip_and_cache_split(self):
        doc = self._graph_doc()
        slow = {"num_procs": 3, "speeds": [2.0, 1.0, 0.5]}
        with BackgroundServer(ServeConfig(port=0)) as srv:
            base = f"http://{srv.host}:{srv.port}"
            _, reg = self._post(base, "/v1/graphs", {"graph": doc})
            fp = reg["fingerprint"]

            status, res = self._post(
                base, "/v1/schedule",
                {"fingerprint": fp, "machine": slow, "algo": "heft"},
            )
            assert status == 200 and res["ok"] and not res["cached"]
            assert res["procs"] == 3
            assert res["machine"]["speeds"] == slow["speeds"]

            # Identical machine → cache hit.
            status, hit = self._post(
                base, "/v1/schedule",
                {"fingerprint": fp, "machine": slow, "algo": "heft"},
            )
            assert status == 200 and hit["cached"]
            assert hit["makespan"] == res["makespan"]

            # Same num_procs, different speeds → distinct entry (the
            # regression this plane exists to prevent).
            status, other = self._post(
                base, "/v1/schedule",
                {"fingerprint": fp, "algo": "heft",
                 "machine": {"num_procs": 3, "speeds": [1.0, 1.0, 8.0]}},
            )
            assert status == 200 and not other["cached"]

            # Plain procs request equals the homogeneous machine request.
            status, by_procs = self._post(
                base, "/v1/schedule", {"fingerprint": fp, "procs": 3},
            )
            assert status == 200 and not by_procs["cached"]
            status, by_machine = self._post(
                base, "/v1/schedule",
                {"fingerprint": fp, "machine": {"num_procs": 3}},
            )
            assert status == 200 and by_machine["cached"]
            assert by_machine["makespan"] == by_procs["makespan"]

    def test_machine_validation_errors(self):
        doc = self._graph_doc()
        with BackgroundServer(ServeConfig(port=0)) as srv:
            base = f"http://{srv.host}:{srv.port}"
            _, reg = self._post(base, "/v1/graphs", {"graph": doc})
            fp = reg["fingerprint"]

            status, err = self._post(
                base, "/v1/schedule",
                {"fingerprint": fp, "machine": {"num_procs": 2, "bogus": 1}},
            )
            assert status == 400 and "machine" in err["error"]

            status, err = self._post(
                base, "/v1/schedule",
                {"fingerprint": fp, "machine": [2]},
            )
            assert status == 400

            status, err = self._post(
                base, "/v1/schedule",
                {"fingerprint": fp, "procs": 4,
                 "machine": {"num_procs": 3}},
            )
            assert status == 400 and "conflicts" in err["error"]

    def test_config_default_machine(self):
        doc = self._graph_doc()
        machine = MachineModel(2, speeds=(1.0, 2.0))
        config = ServeConfig(port=0, options=SchedulingOptions(machine=machine))
        with BackgroundServer(config) as srv:
            base = f"http://{srv.host}:{srv.port}"
            _, reg = self._post(base, "/v1/graphs", {"graph": doc})
            status, res = self._post(
                base, "/v1/schedule",
                {"fingerprint": reg["fingerprint"], "algo": "heft"},
            )
            assert status == 200 and res["ok"]
            assert res["procs"] == 2
            assert res["machine"] == machine.to_dict()

    def test_options_default_machine_inline_graph(self):
        # A request without procs runs on options.machine; a procs that
        # disagrees with it is a 400, one that agrees runs there too.
        doc = self._graph_doc()
        machine = MachineModel(2, speeds=(1.0, 2.0))
        config = ServeConfig(port=0, options=SchedulingOptions(machine=machine))
        with BackgroundServer(config) as srv:
            base = f"http://{srv.host}:{srv.port}"
            status, res = self._post(
                base, "/v1/schedule", {"graph": doc, "algo": "heft"},
            )
            assert status == 200 and res["ok"]
            assert res["machine"] == machine.to_dict()
            status, err = self._post(
                base, "/v1/schedule", {"graph": doc, "algo": "heft", "procs": 3},
            )
            assert status == 400 and "conflicts" in err["error"]
            status, same = self._post(
                base, "/v1/schedule", {"graph": doc, "algo": "heft", "procs": 2},
            )
            assert status == 200 and same["makespan"] == res["makespan"]
            assert same["machine"] == machine.to_dict()
