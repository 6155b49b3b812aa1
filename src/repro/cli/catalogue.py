"""``list``: the experiments this installation offers."""

from __future__ import annotations

from repro.cli.parser import EXPERIMENTS


def cmd_list(args) -> int:
    for name, (_target, help_text) in EXPERIMENTS.items():
        print(f"{name:<22} {help_text}")
    return 0

