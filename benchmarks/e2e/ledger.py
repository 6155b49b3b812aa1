"""Host-time ledger: timing wrappers around the program's public entry points.

The harness installs these wrappers from outside (no source edits), records
``(name, start, end, parent)`` spans in memory, and derives each layer's
*self time* — a span's duration minus the part its child spans cover — so
the layer seconds tile the traced operation exactly.

What a wrapper from outside cannot see: generator bodies.  A wrapped
function that returns a generator (or an event) is timed only up to the
return, so the executors' own Python (``core/exec_*.py``, the
``core/pipeline.step_*`` generators) runs inside ``Simulator.run`` and lands
in ``simkit.loop_self_s``.
"""

from __future__ import annotations

import importlib
import math
import sys
import time

import numpy as np

__all__ = ["TARGETS", "LAYER_OF", "TILING_LAYERS", "Ledger", "self_times", "per_op_layers"]

#: ``(span name, "module:attr[.attr]", layer metric)``.  The layer metric is
#: the per-layer bucket the span's self time is charged to.
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("grids.build_geometry", "repro.core.driver:build_geometry", "grids.build_s"),
    ("grids.FftDescriptor", "repro.grids.descriptor:FftDescriptor.__init__", "grids.build_s"),
    ("grids.DistributedLayout", "repro.grids.descriptor:DistributedLayout.__init__", "grids.build_s"),
    ("fft.cft_1z", "repro.fft.backends.engine:KernelEngine.cft_1z", "fft.kernel_s"),
    ("fft.cft_2xy", "repro.fft.backends.engine:KernelEngine.cft_2xy", "fft.kernel_s"),
    ("fft.rfft", "repro.fft.backends.engine:KernelEngine.rfft", "fft.kernel_s"),
    ("fft.plan", "repro.fft.backends.engine:KernelEngine.plan", "fft.plan_build_s"),
    ("core.expand_to_sticks", "repro.core.wave:expand_to_sticks", "core.marshal_s"),
    ("core.extract_from_sticks", "repro.core.wave:extract_from_sticks", "core.marshal_s"),
    ("core.expand_group_block", "repro.core.wave:expand_group_block", "core.marshal_s"),
    ("core.extract_group_coefficients", "repro.core.wave:extract_group_coefficients", "core.marshal_s"),
    ("core.apply_potential", "repro.core.vofr:apply_potential", "core.marshal_s"),
    ("core.workspace_acquire", "repro.core.workspace:Workspace.acquire", "core.marshal_s"),
    ("core.workspace_release", "repro.core.workspace:Workspace.release", "core.marshal_s"),
    ("core.make_band_coefficients", "repro.core.wave:make_band_coefficients", "core.datagen_s"),
    ("core.make_potential", "repro.core.wave:make_potential", "core.datagen_s"),
    ("core.distribute_coefficients", "repro.core.wave:distribute_coefficients", "core.datagen_s"),
    ("core.potential_slab", "repro.core.wave:potential_slab", "core.datagen_s"),
    ("core.potential_block", "repro.core.wave:potential_block", "core.datagen_s"),
    ("core.pack_fw_plan", "repro.core.redistribute:pack_fw_plan", "core.exchange_plan_s"),
    ("core.pack_bw_plan", "repro.core.redistribute:pack_bw_plan", "core.exchange_plan_s"),
    ("core.scatter_fw_plan", "repro.core.redistribute:scatter_fw_plan", "core.exchange_plan_s"),
    ("core.scatter_bw_plan", "repro.core.redistribute:scatter_bw_plan", "core.exchange_plan_s"),
    ("core.pencil_zy_plan", "repro.core.redistribute:pencil_zy_plan", "core.exchange_plan_s"),
    ("core.pencil_yx_plan", "repro.core.redistribute:pencil_yx_plan", "core.exchange_plan_s"),
    ("core.run_fft_phase", "repro.core.driver:run_fft_phase", "core.driver_self_s"),
    ("mpisim.alltoall", "repro.mpisim.communicator:Communicator.alltoall", "mpisim.collective_s"),
    ("mpisim.alltoallw", "repro.mpisim.communicator:Communicator.alltoallw", "mpisim.collective_s"),
    ("simkit.run", "repro.simkit.simulator:Simulator.run", "simkit.loop_self_s"),
    ("machine.prepare", "repro.machine.contention:BandwidthContentionAllocator.prepare", "machine.allocate_s"),
    ("machine.allocate_batch", "repro.machine.contention:BandwidthContentionAllocator.allocate_batch", "machine.allocate_s"),
    ("machine.compute", "repro.machine.cpu:CpuModel.compute", "machine.compute_s"),
    ("ompss.submit", "repro.ompss.runtime:TaskRuntime.submit", "ompss.submit_s"),
    ("ompss.taskloop", "repro.ompss.runtime:TaskRuntime.taskloop", "ompss.submit_s"),
    ("ompss.taskwait", "repro.ompss.runtime:TaskRuntime.taskwait", "ompss.submit_s"),
    ("telemetry.build_manifest", "repro.telemetry.manifest:build_manifest", "telemetry.build_manifest_s"),
    ("telemetry.write_manifest", "repro.telemetry.manifest:write_manifest", "telemetry.write_manifest_s"),
    ("telemetry.validate_manifest", "repro.telemetry.manifest:validate_manifest", "telemetry.validate_manifest_s"),
    ("analysis.analyze_session", "repro.analysis:analyze_session", "analysis.analyze_s"),
    ("analysis.analyze_run", "repro.analysis:analyze_run", "analysis.analyze_s"),
    ("analysis.analyze_manifest", "repro.analysis:analyze_manifest", "analysis.analyze_s"),
    ("cli.main", "repro.cli:main", "cli.self_s"),
)

#: Spans the harness records itself (not wrappers), and their layer.  The
#: three root kinds: a timed op, the cold first op, the export probe.
ROOT_SPANS = ("op", "setup", "export")
HARNESS_SPANS = {
    **dict.fromkeys(ROOT_SPANS, "harness.op_root_self_s"),
    "cli.run_cmd": "cli.self_s",
    "cli.analyze_cmd": "cli.self_s",
    "cli.import": "cli.import_s",
}

LAYER_OF: dict[str, str] = {name: layer for name, _path, layer in TARGETS}
LAYER_OF.update(HARNESS_SPANS)

#: Layer buckets whose self times tile a traced op.
TILING_LAYERS: tuple[str, ...] = tuple(dict.fromkeys(LAYER_OF.values()))

_KERNEL_SPANS = {"fft.cft_1z", "fft.cft_2xy", "fft.rfft"}


def _kernel_nlog2n(args: tuple) -> float:
    """``rows * N * log2 N`` of one batched kernel call (``args[0]`` is self).

    ``cft_2xy`` transforms ``(planes, nx, ny)``: N = nx*ny per plane.
    """
    shape = np.shape(args[1])
    rows = shape[0]
    n = 1
    for dim in shape[1:]:
        n *= dim
    return rows * n * math.log2(n) if n > 1 else 0.0


class Ledger:
    """In-memory span store plus the wrappers that fill it.

    Spans live in four parallel lists (name id, start, end, parent index);
    the wrapper's hot path is two ``perf_counter`` calls, five list appends
    and a pop.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name: list[int] = []
        self.span_start: list[float] = []
        self.span_end: list[float] = []
        self.span_parent: list[int] = []
        #: ``span index -> rows*N*log2(N)`` for kernel spans only.
        self.kernel_work: dict[int, float] = {}
        self._stack: list[int] = [-1]
        #: ``(owner, attribute, original)`` of every installed patch.
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def begin(self, name: str) -> int:
        """Open a harness span (closed with :meth:`end`)."""
        i = len(self.span_start)
        self.span_name.append(self.name_id(name))
        self.span_parent.append(self._stack[-1])
        self.span_end.append(0.0)
        self._stack.append(i)
        self.span_start.append(time.perf_counter())
        return i

    def end(self, i: int) -> None:
        self.span_end[i] = time.perf_counter()
        popped = self._stack.pop()
        if popped != i:
            raise RuntimeError(f"span {i} closed out of order (top was {popped})")

    def add_span(self, name: str, start: float, end: float) -> None:
        """Record a finished span timed by the caller, under the open span."""
        self.span_name.append(self.name_id(name))
        self.span_parent.append(self._stack[-1])
        self.span_start.append(start)
        self.span_end.append(end)

    def _wrap(self, fn, name: str):
        nid = self.name_id(name)
        names, starts, ends = self.span_name, self.span_start, self.span_end
        parents, stack = self.span_parent, self._stack
        pc = time.perf_counter

        def timed(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(pc())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = pc()
                stack.pop()

        wrapper = timed
        if name in _KERNEL_SPANS:
            work = self.kernel_work

            def wrapper(*args, **kwargs):
                # Outside the timed span: the bookkeeping is the harness's.
                work[len(starts)] = _kernel_nlog2n(args)
                return timed(*args, **kwargs)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    # -- install / uninstall -------------------------------------------------

    def install(self) -> None:
        """Patch every target.  Methods are replaced on their class;
        module-level functions in every loaded ``repro`` module that holds a
        reference (``from x import f`` binds a second name)."""
        if self._patched:
            raise RuntimeError("ledger already installed")
        functions: dict[int, tuple[object, object]] = {}
        for name, path, _layer in TARGETS:
            mod_name, attr_path = path.split(":")
            owner: object = importlib.import_module(mod_name)
            *parents, attr = attr_path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            original = vars(owner)[attr]
            wrapper = self._wrap(original, name)
            if parents:
                self._patch(owner, attr, original, wrapper)
            else:
                functions[id(original)] = (original, wrapper)
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            for key, value in list(vars(module).items()):
                if id(value) in functions:
                    self._patch(module, key, *functions[id(value)])

    def _patch(self, owner: object, attr: str, original: object, wrapper: object) -> None:
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        """Restore every patched attribute to the original object."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- export --------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        """The spans as arrays (what :meth:`save` writes)."""
        work = np.zeros(len(self.span_start))
        for i, value in self.kernel_work.items():
            work[i] = value
        return {
            "names": np.array(self.names),
            "name": np.asarray(self.span_name, dtype=np.int32),
            "start": np.asarray(self.span_start, dtype=np.float64),
            "end": np.asarray(self.span_end, dtype=np.float64),
            "parent": np.asarray(self.span_parent, dtype=np.int64),
            "kernel_work": work,
        }

    def save(self, path: str) -> None:
        """Write the spans out (``.npz``; ``names[name[i]]`` is span i's name)."""
        np.savez(path, **self.arrays())

    def adopt(self, arrays: dict[str, np.ndarray], parent: int) -> None:
        """Append spans recorded by a child process under span ``parent``.

        ``perf_counter`` is CLOCK_MONOTONIC on Linux — one timeline for every
        process of the host — so child timestamps need no translation.
        """
        base = len(self.span_start)
        remap = [self.name_id(str(n)) for n in arrays["names"]]
        self.span_name.extend(remap[i] for i in arrays["name"].tolist())
        self.span_start.extend(arrays["start"].tolist())
        self.span_end.extend(arrays["end"].tolist())
        self.span_parent.extend(
            parent if p < 0 else p + base for p in arrays["parent"].tolist()
        )
        for i in np.flatnonzero(arrays["kernel_work"]).tolist():
            self.kernel_work[base + i] = float(arrays["kernel_work"][i])


def self_times(arrays: dict[str, np.ndarray]) -> np.ndarray:
    """Per-span self time: duration minus the durations of direct children."""
    dur = arrays["end"] - arrays["start"]
    parent = arrays["parent"]
    has_parent = parent >= 0
    child_sum = np.bincount(
        parent[has_parent], weights=dur[has_parent], minlength=len(dur)
    )
    return dur - child_sum


def per_op_layers(
    arrays: dict[str, np.ndarray], root_name: str = "op"
) -> list[dict[str, float]]:
    """One dict per ``root_name`` root span: its duration (``op_s``), each
    layer's self seconds, per-span-name call counts (``calls:<name>``) and
    the kernel work (``kernel_nlog2n``).

    Spans recorded outside any root (harness checks between ops) are ignored.
    """
    names = [str(n) for n in arrays["names"]]
    if root_name not in names:
        return []
    n = len(arrays["start"])
    selfs = self_times(arrays)
    parent = arrays["parent"]
    op_id = names.index(root_name)
    # Parents precede children, so one forward pass resolves every root.
    root_list = list(range(n))
    for i, p in enumerate(parent.tolist()):
        if p >= 0:
            root_list[i] = root_list[p]
    root = np.asarray(root_list)
    layer_names = list(dict.fromkeys(LAYER_OF[nm] for nm in names if nm in LAYER_OF))
    layer_idx = np.array(
        [layer_names.index(LAYER_OF[nm]) if nm in LAYER_OF else -1 for nm in names]
    )
    out = []
    for r in np.flatnonzero((arrays["name"] == op_id) & (parent < 0)).tolist():
        members = root == r
        span_layers = layer_idx[arrays["name"][members]]
        sums = np.bincount(span_layers, weights=selfs[members], minlength=len(layer_names))
        row: dict[str, float] = {
            "op_s": float(arrays["end"][r] - arrays["start"][r]),
            "kernel_nlog2n": float(arrays["kernel_work"][members].sum()),
        }
        for layer, seconds in zip(layer_names, sums.tolist()):
            row[layer] = seconds
        counts = np.bincount(arrays["name"][members], minlength=len(names))
        for nm, c in zip(names, counts.tolist()):
            if c:
                row[f"calls:{nm}"] = float(c)
        out.append(row)
    return out
