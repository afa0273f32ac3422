"""The unified :class:`repro.SchedulingOptions` record: all three entry
points accept the same options object, the ``machine=`` override of
:func:`repro.schedule_graph` wins over ``options.machine``, and the
removed legacy keywords are rejected."""

import asyncio
import dataclasses
import warnings

import pytest

from repro import BatchScheduler, MachineModel, MetricsRegistry, SchedulingOptions, schedule_graph
from repro.api import schedule_graph_async
from repro.batch import SCHEDULER_ERROR, BatchJob, schedule_many
from repro.core import flb
from repro.exceptions import SchedulerError
from repro.graphstore import attach
from repro.serve import AdmissionController, ServeConfig, WeightedFairQueue
from repro.util.rng import make_rng
from repro.workerpool import run_supervised
from repro.workloads import lu, paper_example, stencil


@pytest.fixture
def graph():
    return lu(6, make_rng(0), ccr=1.0)


class TestSchedulingOptions:
    def test_defaults(self):
        opts = SchedulingOptions()
        assert opts.machine is None
        assert opts.algorithm == "flb"
        assert opts.validate is False
        assert opts.certify is False
        assert opts.timeout is None
        assert opts.retries == 2
        assert opts.metrics is None

    def test_frozen(self):
        opts = SchedulingOptions()
        with pytest.raises(AttributeError):
            opts.algorithm = "etf"

    def test_replace(self):
        opts = SchedulingOptions(machine=MachineModel(4))
        other = dataclasses.replace(opts, algorithm="etf", certify=True)
        assert (other.machine.num_procs, other.algorithm, other.certify) == (4, "etf", True)
        assert other.machine == MachineModel(4)
        assert opts.algorithm == "flb"  # original untouched

    @pytest.mark.parametrize("bad", [
        {"timeout": 0.0},
        {"timeout": -1.0},
        {"retries": -1},
    ])
    def test_validation(self, bad):
        with pytest.raises(ValueError):
            SchedulingOptions(**bad)


class TestProcsFieldShim:
    """The integer ``procs=`` field is gone: a machine is the only way."""

    def test_mixing_procs_and_machine_raises(self):
        with pytest.raises(TypeError):
            SchedulingOptions(procs=4, machine=MachineModel(4))


class TestScheduleGraph:
    def test_options_positional_and_keyword_agree(self, graph):
        opts = SchedulingOptions(machine=MachineModel(4), algorithm="etf")
        a = schedule_graph(graph, opts)
        b = schedule_graph(graph, options=opts)
        assert a.makespan == b.makespan

    def test_no_warning_for_options_form(self, graph):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            schedule_graph(graph, SchedulingOptions(machine=MachineModel(4)))

    def test_mixing_styles_raises(self, graph):
        # The legacy positional count is gone: it can only collide with
        # options=, never be read as a processor count.
        opts = SchedulingOptions(machine=MachineModel(4))
        with pytest.raises(TypeError):
            schedule_graph(graph, 4, options=opts)
        with pytest.raises(TypeError):
            schedule_graph(graph, opts, options=opts)

    def test_validate_and_certify(self, graph):
        s = schedule_graph(
            graph, SchedulingOptions(machine=MachineModel(4), certify=True)
        )
        assert s.makespan > 0

    def test_metrics_records_kernel_span(self, graph):
        reg = MetricsRegistry()
        schedule_graph(graph, SchedulingOptions(machine=MachineModel(4),
                                                metrics=reg, certify=True))
        names = [e["name"] for e in reg.events]
        assert names == ["sched.kernel", "verify.certify"]
        assert reg.histogram("sched_kernel_seconds").count == 1
        kernel = reg.events[0]["attrs"]
        assert kernel["tasks"] == graph.num_tasks
        assert kernel["makespan"] > 0


class TestMachineOverride:
    """The ``machine=`` keyword wins over ``options.machine`` for one call,
    whatever the two processor counts."""

    OVERRIDES = [MachineModel(8), MachineModel(3, speeds=(2.0, 1.0, 0.5))]

    @pytest.mark.parametrize("override", OVERRIDES, ids=["homog8", "hetero3"])
    @pytest.mark.parametrize("algo", ["flb", "etf"])
    def test_keyword_overrides_options_machine(self, graph, algo, override):
        opts = SchedulingOptions(machine=MachineModel(4), algorithm=algo)
        schedule = schedule_graph(graph, opts, machine=override)
        assert schedule.machine is override
        direct = schedule_graph(graph, dataclasses.replace(opts, machine=override))
        assert schedule.makespan == direct.makespan

    @pytest.mark.parametrize("override", OVERRIDES, ids=["homog8", "hetero3"])
    @pytest.mark.parametrize("algo", ["flb", "etf"])
    def test_async_keyword_overrides_options_machine(self, graph, algo, override):
        opts = SchedulingOptions(machine=MachineModel(4), algorithm=algo)
        schedule = asyncio.run(schedule_graph_async(graph, opts, machine=override))
        assert schedule.machine is override

    def test_missing_machine_is_scheduler_error(self, graph):
        with pytest.raises(SchedulerError):
            schedule_graph(graph)
        with pytest.raises(SchedulerError):
            schedule_graph(graph, SchedulingOptions(algorithm="etf"))


class TestScheduleMany:
    def test_accepts_options(self, graph):
        jobs = [BatchJob(graph=graph, machine=MachineModel(2)),
                BatchJob(graph=graph, machine=MachineModel(4))]
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            results = schedule_many(jobs, workers=1,
                                    options=SchedulingOptions(validate=True))
        assert all(r.ok for r in results)

    def test_mixing_styles_raises(self, graph):
        # The legacy timeout= keyword is gone, with or without options=.
        with pytest.raises(TypeError):
            schedule_many([BatchJob(graph=graph, machine=MachineModel(2))], timeout=1.0,
                          options=SchedulingOptions())

    @pytest.mark.parametrize("algo", ["flb", "etf"])
    def test_job_without_machine_is_scheduler_error(self, graph, algo):
        (res,) = schedule_many([BatchJob(graph=graph, algo=algo)], workers=1)
        assert res.error_kind == SCHEDULER_ERROR
        assert "SchedulerError" in res.error
        assert "AttributeError" not in res.error


class TestBatchScheduler:
    def test_accepts_options(self, graph):
        opts = SchedulingOptions(timeout=30.0, validate=True)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            with BatchScheduler(workers=1, options=opts) as bs:
                results = bs.run([BatchJob(graph=graph, machine=MachineModel(2))])
        assert results[0].ok

    def test_per_run_options_override(self, graph):
        with BatchScheduler(workers=1) as bs:
            results = bs.run(
                [BatchJob(graph=graph, machine=MachineModel(2))],
                options=SchedulingOptions(certify=True),
            )
            assert results[0].ok and results[0].certified

    def test_mixing_ctor_styles_raises(self):
        # The legacy timeout= keyword is gone, with or without options=.
        with pytest.raises(TypeError):
            BatchScheduler(workers=1, timeout=1.0, options=SchedulingOptions())

    def test_metrics_method_enables_and_returns_registry(self, graph):
        with BatchScheduler(workers=1) as bs:
            reg = bs.metrics()
            assert isinstance(reg, MetricsRegistry)
            assert bs.metrics() is reg  # stable across calls
            bs.run([BatchJob(graph=graph, machine=MachineModel(2))])
            assert reg.total("batch_jobs_total") == 1

    def test_options_registry_is_the_scheduler_registry(self, graph):
        reg = MetricsRegistry()
        with BatchScheduler(workers=1, options=SchedulingOptions(metrics=reg)) as bs:
            assert bs.metrics() is reg
            bs.run([BatchJob(graph=graph, machine=MachineModel(2))])
        assert reg.total("batch_jobs_total") == 1


class TestCrossEntryPointAgreement:
    def test_same_options_same_schedule(self):
        graph = stencil(5, 4, make_rng(3), ccr=0.5)
        opts = SchedulingOptions(machine=MachineModel(4), algorithm="flb")
        direct = schedule_graph(graph, opts)
        (via_many,) = schedule_many(
            [BatchJob(graph=graph, machine=MachineModel(4))], workers=1
        )
        with BatchScheduler(workers=1) as bs:
            (via_bs,) = bs.run([BatchJob(graph=graph, machine=MachineModel(4))])
        assert direct.makespan == via_many.makespan == via_bs.makespan


def _square(x):
    return x * x


class TestRemovedSettings:
    """Each setting has one spelling, and a value no caller varied is a
    module constant: the second spellings and the knobs are gone."""

    @pytest.mark.parametrize(
        ("build", "removed"),
        [
            pytest.param(lambda **kw: BatchJob(graph=None, **kw), "procs", id="BatchJob-procs"),
            pytest.param(lambda **kw: schedule_many([], **kw), "metrics",
                         id="schedule_many-metrics"),
            pytest.param(BatchScheduler, "metrics", id="BatchScheduler-metrics"),
            pytest.param(ServeConfig, "dispatchers", id="ServeConfig-dispatchers"),
            pytest.param(ServeConfig, "default_weight", id="ServeConfig-default_weight"),
            pytest.param(lambda **kw: AdmissionController(max_backlog=4, **kw),
                         "dispatchers", id="AdmissionController-dispatchers"),
            pytest.param(lambda **kw: AdmissionController(max_backlog=4, **kw),
                         "alpha", id="AdmissionController-alpha"),
            pytest.param(lambda **kw: AdmissionController(max_backlog=4, **kw),
                         "initial_estimate",
                         id="AdmissionController-initial_estimate"),
            pytest.param(WeightedFairQueue, "default_weight",
                         id="WeightedFairQueue-default_weight"),
            pytest.param(lambda **kw: run_supervised([1], _square, workers=1, **kw),
                         "max_backoff", id="run_supervised-max_backoff"),
            pytest.param(lambda **kw: attach("repro_tg_x", **kw), "cache_size",
                         id="attach-cache_size"),
            pytest.param(lambda **kw: flb(paper_example(), MachineModel(2), **kw),
                         "observer", id="flb-observer"),
            pytest.param(lambda **kw: schedule_graph(
                paper_example(), SchedulingOptions(machine=MachineModel(2)), **kw),
                "observer", id="schedule_graph-observer"),
        ],
    )
    def test_removed_keyword_raises(self, build, removed):
        with pytest.raises(TypeError, match=removed):
            build(**{removed: 1})
