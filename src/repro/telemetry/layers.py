"""Record-name → metric-label mappings shared by tracing and manifests.

Communicator instances carry an index in their name (``pack3``,
``scatter1``, ``pencil_row2``); aggregation wants the *family* (the
layer): all ``pack{r}`` communicators are one ``.prv``/POP layer.  The
old ``name.rstrip("0123456789")`` handled only trailing digits, so a
family whose index lands mid-name (``scatter1/c2`` from a split, or any
future infix) silently merged into a sibling layer.  The regex strips
every digit run wherever it appears:

    pack3          -> pack
    scatter12      -> scatter
    pencil_row3    -> pencil_row
    pencil_col12   -> pencil_col
    scatter1/c2    -> scatter/c

Task names carry a chunk suffix (``fft_z[0:10]``); a task's *kind* is the
name without it or a trailing index.
"""

from __future__ import annotations

import re

__all__ = ["comm_layer", "task_kind"]

_DIGITS = re.compile(r"\d+")


def comm_layer(comm_name: str) -> str:
    """The communicator family (layer) of an instance name."""
    return _DIGITS.sub("", comm_name)


def task_kind(name: str) -> str:
    """Low-cardinality metric label from a task name (``fft_z[0:10]`` -> ``fft_z``)."""
    return name.split("[", 1)[0].rstrip("0123456789")
