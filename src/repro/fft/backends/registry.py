"""Backend discovery and selection.

The registry maps each backend name to the module that defines it; the
module is imported on the first :func:`get_backend` for that name, and the
optional libraries behind ``scipy`` / ``pyfftw`` only on the first
``plan()`` (:class:`~repro.fft.backends.base.LibraryBackend`).  Config
validation and ``--fft-backend`` need the names alone, so
``RunConfig.fft_backend`` validates through :func:`known_backends` and
loads nothing.  The CLI's ``backends`` subcommand prints
:func:`backend_info` — the one call that imports every optional library,
for its version — and the conformance suite parametrizes over
:func:`known_backends` (skipping unavailable ones with their reason rather
than passing silently).
"""

from __future__ import annotations

from repro._lazy import resolve
from repro.fft.backends.base import BackendUnavailableError, FftBackend

__all__ = [
    "DEFAULT_BACKEND",
    "known_backends",
    "get_backend",
    "available_backends",
    "backend_info",
]

#: pocketfft via numpy: always importable here and the fastest safe default.
DEFAULT_BACKEND = "numpy"

#: name -> "module:class", default first.
_BACKENDS: dict[str, str] = {
    "numpy": "repro.fft.backends.numpy_backend:NumpyBackend",
    "scipy": "repro.fft.backends.scipy_backend:ScipyBackend",
    "pyfftw": "repro.fft.backends.pyfftw_backend:PyfftwBackend",
    "native": "repro.fft.backends.native:NativeBackend",
}
_INSTANCES: dict[str, FftBackend] = {}


def known_backends() -> tuple[str, ...]:
    """All registered backend names, available or not (default first)."""
    return tuple(_BACKENDS)


def get_backend(name: str, require_available: bool = True) -> FftBackend:
    """Resolve a backend by name.

    Unknown names raise ``ValueError`` listing the registry; backends whose
    library is not installed raise :class:`BackendUnavailableError` with the
    probe's reason unless ``require_available=False``.
    """
    if name not in _BACKENDS:
        raise ValueError(
            f"unknown fft backend {name!r}; known backends: {', '.join(sorted(_BACKENDS))}"
        )
    backend = _INSTANCES.get(name)
    if backend is None:
        backend = _INSTANCES[name] = resolve(_BACKENDS[name])()
    if require_available:
        available, note = backend.availability()
        if not available:
            raise BackendUnavailableError(
                f"fft backend {name!r} is not available: {note}"
            )
    return backend


def available_backends() -> tuple[str, ...]:
    """Names of backends whose library is installed here (probed, not
    imported)."""
    return tuple(
        n for n in _BACKENDS if get_backend(n, require_available=False).availability()[0]
    )


def backend_info() -> list[dict]:
    """One describe() row per registered backend (CLI/tests/manifests)."""
    return [get_backend(n, require_available=False).describe() for n in _BACKENDS]
