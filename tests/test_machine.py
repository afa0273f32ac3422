"""Tests for the machine model."""

import pytest

from repro.machine import MachineModel


class TestMachineModel:
    def test_defaults_match_paper(self):
        m = MachineModel(4)
        assert m.is_paper_model
        assert list(m.procs) == [0, 1, 2, 3]

    def test_same_proc_comm_is_free(self):
        m = MachineModel(2, comm_scale=3.0, latency=5.0)
        assert m.comm_delay(1, 1, 10.0) == 0.0

    def test_cross_proc_delay(self):
        m = MachineModel(2)
        assert m.comm_delay(0, 1, 7.5) == 7.5

    def test_scale_and_latency(self):
        m = MachineModel(2, comm_scale=2.0, latency=1.0)
        assert m.comm_delay(0, 1, 3.0) == 7.0
        assert not m.is_paper_model

    def test_symmetric_clique(self):
        m = MachineModel(5)
        for a in m.procs:
            for b in m.procs:
                assert m.comm_delay(a, b, 2.0) == m.comm_delay(b, a, 2.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            MachineModel(0)
        with pytest.raises(ValueError):
            MachineModel(2, comm_scale=-1.0)
        with pytest.raises(ValueError):
            MachineModel(2, latency=-0.1)
        nan, inf = float("nan"), float("inf")
        for bad in ({"latency": nan}, {"latency": inf}, {"comm_scale": nan},
                    {"comm_scale": inf}, {"speeds": (1.0, nan)},
                    {"speeds": (1.0, inf)}):
            with pytest.raises(ValueError, match="finite"):
                MachineModel(2, **bad)
            with pytest.raises(ValueError, match="finite"):
                MachineModel.from_dict({"num_procs": 2, **bad})

    def test_frozen(self):
        m = MachineModel(2)
        with pytest.raises(AttributeError):
            m.num_procs = 3  # type: ignore[misc]
