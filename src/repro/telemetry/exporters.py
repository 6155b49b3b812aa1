"""One registry over every run-artifact format.

The reproduction historically had a single bespoke output — the Paraver
``.prv`` writer.  This module makes that one exporter among several behind a
common call shape::

    from repro.telemetry.exporters import export_run
    export_run(result, "chrome", "run.json")      # Perfetto / chrome://tracing
    export_run(result, "prometheus", "run.prom")  # metrics text dump
    export_run(result, "prv", "run")              # Paraver .prv/.pcf/.row
    export_run(result, "manifest", "run.json")    # the regression-diff artifact

Every exporter takes the completed :class:`~repro.core.driver.RunResult` of
a telemetry-enabled run (``RunConfig(telemetry=True)``); formats that need
records raise cleanly when the run was executed without telemetry.
"""

from __future__ import annotations

import pathlib
import typing as _t

from repro.telemetry.chrometrace import write_chrome_trace
from repro.telemetry.manifest import build_manifest, write_manifest

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.core.driver import RunResult

__all__ = ["EXPORTERS", "export_run"]

Exporter = _t.Callable[["RunResult", pathlib.Path], pathlib.Path]


def _require_telemetry(result: "RunResult"):
    if result.telemetry is None or not result.telemetry.enabled:
        raise ValueError(
            "this export needs a telemetry-enabled run; pass "
            "RunConfig(telemetry=True) or run_fft_phase(..., telemetry=...)"
        )
    return result.telemetry


def _export_chrome(result: "RunResult", path: pathlib.Path) -> pathlib.Path:
    tel = _require_telemetry(result)
    return write_chrome_trace(
        path,
        tel.trace,
        spans=tel.spans,
        frequency_hz=result.cpu.frequency_hz,
        queue_depth_samples=getattr(tel, "queue_samples", ()),
        label=result.config.label(),
    )


def _export_prometheus(result: "RunResult", path: pathlib.Path) -> pathlib.Path:
    tel = _require_telemetry(result)
    path = pathlib.Path(path)
    if not path.suffix:
        path = path.with_suffix(".prom")
    path.write_text(tel.metrics.to_prometheus())
    return path


def _export_prv(result: "RunResult", path: pathlib.Path) -> pathlib.Path:
    tel = _require_telemetry(result)
    from repro.telemetry.paraver import write_prv

    return write_prv(path, tel.trace, label=result.config.version)


def _export_manifest(result: "RunResult", path: pathlib.Path) -> pathlib.Path:
    return write_manifest(path, build_manifest(result))


EXPORTERS: dict[str, Exporter] = {
    "chrome": _export_chrome,
    "prometheus": _export_prometheus,
    "prv": _export_prv,
    "manifest": _export_manifest,
}


def export_run(
    result: "RunResult", fmt: str, path: str | pathlib.Path
) -> pathlib.Path:
    """Write one artifact of ``result`` in format ``fmt``; returns its path."""
    try:
        exporter = EXPORTERS[fmt]
    except KeyError:
        raise ValueError(
            f"unknown export format {fmt!r}; choose from {sorted(EXPORTERS)}"
        ) from None
    return exporter(result, pathlib.Path(path))
