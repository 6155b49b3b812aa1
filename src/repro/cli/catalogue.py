"""``list`` and ``backends``: what this installation offers."""

from __future__ import annotations

from repro.cli.parser import EXPERIMENTS


def cmd_list(args) -> int:
    for name, (_target, help_text) in EXPERIMENTS.items():
        print(f"{name:<22} {help_text}")
    return 0


def cmd_backends(args) -> int:
    """The one command that imports every optional FFT library — for its
    version, or the reason it cannot be used."""
    from repro.fft.backends import DEFAULT_BACKEND, backend_info

    for row in backend_info():
        status = "available" if row["available"] else "unavailable"
        marker = " (default)" if row["name"] == DEFAULT_BACKEND else ""
        workers = "in-library workers" if row["supports_workers"] else "process pool"
        print(
            f"{row['name']:<8} {status:<12} {row['note']}{marker}\n"
            f"{'':<8} kinds: {', '.join(row['kinds'])}; "
            f"layouts: {', '.join(row['layouts'])}; multicore via {workers}"
        )
    return 0
