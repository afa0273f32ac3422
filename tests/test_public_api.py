"""Snapshot of the ``repro`` public surface.

``repro.__all__`` is a compatibility promise: removals and renames are
breaking changes and must fail here first, deliberately.  Additions are
fine — extend :data:`EXPECTED_ALL` in the same change that exports the
new name.
"""

import os
import subprocess
import sys

import repro

SRC = os.path.dirname(os.path.dirname(repro.__file__))

#: The promised public surface, sorted.  Change this list only in a
#: change that also updates docs/observability.md / the README.
EXPECTED_ALL = sorted(
    [
        "__version__",
        "TaskGraph",
        "MachineModel",
        "flb",
        "schedule_graph",
        "schedule_many",
        "BatchScheduler",
        "SchedulingOptions",
        "MetricsRegistry",
        "lint",
        "certify",
        "ServeConfig",
        "BackgroundServer",
    ]
)


class TestPublicSurface:
    def test_all_snapshot(self):
        assert sorted(repro.__all__) == EXPECTED_ALL

    def test_every_name_importable(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_dir_covers_all(self):
        listing = dir(repro)
        for name in repro.__all__:
            assert name in listing

    def test_unknown_attribute_raises(self):
        try:
            repro.no_such_name
        except AttributeError as exc:
            assert "no_such_name" in str(exc)
        else:  # pragma: no cover - the assertion is the point
            raise AssertionError("expected AttributeError")


class TestLazyBindings:
    """The lazy names must resolve to their canonical definitions."""

    def test_machine_model_is_machine_module(self):
        from repro.machine import MachineModel

        assert repro.MachineModel is MachineModel

    def test_schedule_graph_is_api_module(self):
        from repro.api import schedule_graph

        assert repro.schedule_graph is schedule_graph

    def test_options_is_api_module(self):
        from repro.api import SchedulingOptions

        assert repro.SchedulingOptions is SchedulingOptions

    def test_batch_names(self):
        from repro.batch import BatchScheduler, schedule_many

        assert repro.schedule_many is schedule_many
        assert repro.BatchScheduler is BatchScheduler

    def test_obs_and_verify_names(self):
        from repro.obs import MetricsRegistry
        from repro.verify import certify, lint

        assert repro.MetricsRegistry is MetricsRegistry
        assert repro.lint is lint
        assert repro.certify is certify

    def test_serve_names(self):
        from repro.serve import BackgroundServer, ServeConfig

        assert repro.ServeConfig is ServeConfig
        assert repro.BackgroundServer is BackgroundServer


class TestImportWeight:
    def test_batch_plane_imports_no_http_or_xml_client(self):
        # The batch plane used to pull urllib.request, http.client, email
        # and ssl in through the SVG renderer's XML escape.
        code = (
            "import sys\n"
            "import repro.api, repro.batch, repro.verify.certify\n"
            "heavy = ('xml.sax', 'urllib.request', 'http.client', 'email')\n"
            "print(sorted(m for m in sys.modules if m in heavy))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            check=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=SRC),
        ).stdout
        assert out.strip() == "[]"
