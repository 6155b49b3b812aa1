"""Cold start pays only for what the command uses — pinned per subcommand.

Every check runs in a fresh interpreter (``sys.modules`` of the test
process says nothing about a cold start) and asserts on the module set a
command leaves behind:

* ``run`` never loads scipy, ``multiprocessing``, ``asyncio``, the
  experiment / sweep / tuning packages or the A/B code
  (``repro.analysis.triage``, ``repro.perf``), nor ``numpy.ma`` in meta mode
  (plain ``np.unique`` imports it) — in data mode
  (``--validate``) neither, nor ``mmap``: the kernels are ``numpy.fft`` fanned
  over ``concurrent.futures.thread`` (through ``repro._fan``, the data plane's
  one pool) and nothing optional; in meta mode not even the kernel engine,
  the fan helper or its thread pool module;
* ``analyze`` and ``perf validate`` read JSON: no numpy, no simulator, and
  with one manifest no A/B code;
* ``--help`` loads the parser and nothing else;
* building a ``RunConfig`` imports no ``repro.fft.backends.*``, no
  ``repro._fan`` and no ``concurrent.futures.thread``;
* with numpy's OpenBLAS pool kept out (``OPENBLAS_NUM_THREADS=1``), a
  meta-mode run ends with one OS thread and a data-mode run adds only
  ``repro._fan``'s.

``python tests/test_import_budget.py`` prints the module and thread counts
as a markdown table (the CI ``cold-start`` job's summary).
"""

import importlib
import importlib.util
import json
import os
import pathlib
import subprocess
import sys

import pytest

import repro

SRC = str(pathlib.Path(repro.__file__).resolve().parents[1])
REPO = str(pathlib.Path(__file__).resolve().parents[1])

QUICK_RUN = ["run", "--quick", "--ranks", "2", "--taskgroups", "2"]

#: Budgets on ``repro.*`` modules (measured: run --help 4, analyze 15,
#: ``run --manifest`` 62, for ``QUICK_RUN`` and the paper's 8x8 alike).
HELP_BUDGET = 15
OFFLINE_BUDGET = 20
RUN_BUDGET = 65

#: Modules only an A/B command (two manifests) needs.
AB_MODULES = ("repro.analysis.triage", "repro.perf")

#: Keeps OpenBLAS's own pool out of a child's thread count.
NO_BLAS_POOL = {"OPENBLAS_NUM_THREADS": "1"}

_PROBE = """
import io, json, os, sys, threading
from repro.cli import main
out, err = io.StringIO(), io.StringIO()
real = sys.stdout, sys.stderr
sys.stdout, sys.stderr = out, err
try:
    try:
        rc = main({argv!r})
    except SystemExit as exc:
        rc = exc.code
finally:
    sys.stdout, sys.stderr = real
task = "/proc/self/task"  # OS threads, None off Linux
print(json.dumps({{"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue(),
                  "modules": sorted(sys.modules),
                  "os_threads": len(os.listdir(task)) if os.path.isdir(task) else None,
                  "py_threads": sorted(t.name for t in threading.enumerate())}}))
"""


def fresh(code: str, extra_path: str | None = None, env: dict | None = None) -> str:
    """Run ``code`` in a fresh interpreter (cwd = repo root, ``env`` added to
    this process's environment); its stdout."""
    paths = [p for p in (extra_path, SRC, REPO) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths), **(env or {}))
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=REPO, env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def probe(argv: list[str], extra_path: str | None = None, env: dict | None = None) -> dict:
    """``main(argv)`` in a fresh interpreter: rc, captured output, modules
    and the threads left at exit."""
    out = fresh(_PROBE.format(argv=argv), extra_path, env)
    return json.loads(out.splitlines()[-1])


def loaded(modules: list[str], *roots: str) -> list[str]:
    """The members of ``modules`` at or below any of ``roots``."""
    return [m for m in modules if any(m == r or m.startswith(r + ".") for r in roots)]


@pytest.fixture(scope="module")
def run_probe(tmp_path_factory) -> tuple[dict, str]:
    manifest = str(tmp_path_factory.mktemp("budget") / "run.json")
    return probe(QUICK_RUN + ["--manifest", manifest]), manifest


class TestCommandBudgets:
    def test_run_loads_only_the_simulator(self, run_probe):
        result, _manifest = run_probe
        assert result["rc"] == 0, result["stderr"]
        unwanted = loaded(
            result["modules"], "scipy", "multiprocessing", "asyncio", "numpy.ma",
            "repro.experiments", "repro.sweep",
            "repro.tuning", "repro.fft.backends", "repro._fan", "concurrent.futures.thread",
            *AB_MODULES,
        )
        assert unwanted == []
        assert len(loaded(result["modules"], "repro")) <= RUN_BUDGET

    @pytest.mark.parametrize("command", [["analyze"], ["perf", "validate"]])
    def test_offline_commands_load_no_numpy_and_no_simulator(self, run_probe, command):
        _result, manifest = run_probe
        result = probe(command + [manifest])
        assert result["rc"] == 0, result["stderr"]
        unwanted = loaded(
            result["modules"], "numpy", "repro.core", "repro.mpisim",
            "repro.machine", "repro.fft", "repro.grids", *AB_MODULES,
        )
        assert unwanted == []
        assert len(loaded(result["modules"], "repro")) <= OFFLINE_BUDGET

    def test_help_loads_the_parser_and_nothing_else(self):
        result = probe(["run", "--help"])
        assert result["rc"] == 0
        assert result["stdout"].startswith("usage: fftxlib-repro run")
        assert loaded(result["modules"], "numpy") == []
        assert len(loaded(result["modules"], "repro")) <= HELP_BUDGET

    def test_both_entry_points_run(self):
        """``python -m repro`` and the ``fftxlib-repro`` script target."""
        env = dict(os.environ, PYTHONPATH=SRC)
        for cmd in (
            [sys.executable, "-m", "repro", "list"],
            [sys.executable, "-c", "import sys; from repro.cli import main; sys.exit(main())", "list"],
        ):
            proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            assert proc.stdout.startswith("fig2 ")

    def test_parser_versions_match_the_config(self):
        from repro.cli.parser import VERSIONS
        from repro.core.config import VERSIONS as CONFIG_VERSIONS

        assert VERSIONS == CONFIG_VERSIONS


class TestKernelImports:
    def test_building_a_config_imports_no_kernel_module(self):
        out = fresh(
            "import sys\n"
            "from repro.core import RunConfig\n"
            "RunConfig(); RunConfig(data_mode=True)\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m.startswith('repro.fft.backends')\n"
            "             or m in ('repro._fan', 'concurrent.futures.thread')))\n"
        )
        assert out.strip() == "[]"

    def test_data_mode_run_imports_numpy_fft_and_nothing_optional(self):
        result = probe(QUICK_RUN + ["--validate"])
        assert result["rc"] == 0, result["stderr"]
        assert {
            "repro.fft.backends.engine", "repro._fan", "concurrent.futures.thread",
        } <= set(result["modules"])
        assert loaded(result["modules"], "scipy", "multiprocessing", "mmap") == []


@pytest.mark.skipif(
    not os.path.isdir("/proc/self/task"), reason="OS thread count needs Linux /proc"
)
class TestThreads:
    """Besides OpenBLAS's pool, the only threads a run starts are
    ``repro._fan``'s, and only in data mode."""

    def test_meta_run_ends_with_one_os_thread(self):
        result = probe(QUICK_RUN, env=NO_BLAS_POOL)
        assert result["os_threads"] == 1

    def test_data_run_adds_only_the_fan_threads(self):
        result = probe(QUICK_RUN + ["--validate"], env=NO_BLAS_POOL)
        fan = [n for n in result["py_threads"] if n.startswith("dataplane-fan")]
        assert result["os_threads"] == 1 + len(fan)
        assert len(result["py_threads"]) == result["os_threads"]


def test_ledger_targets_are_plain_module_attributes():
    """``benchmarks/e2e/ledger.py`` patches ``vars(owner)[attr]`` after a
    plain import, so no target may hide behind a lazy ``__getattr__``."""
    spec = importlib.util.spec_from_file_location(
        "_e2e_ledger", os.path.join(REPO, "benchmarks", "e2e", "ledger.py")
    )
    ledger = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ledger)
    for _name, path, _layer in ledger.TARGETS:
        module, attr_path = path.split(":")
        owner = importlib.import_module(module)
        *parents, attr = attr_path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        assert attr in vars(owner), path


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        manifest = os.path.join(tmp, "run.json")
        commands = [
            ("run --help", ["run", "--help"]),
            ("run --quick 2x2 --manifest", QUICK_RUN + ["--manifest", manifest]),
            ("analyze", ["analyze", manifest]),
        ]
        rows = [(label, probe(argv, env=NO_BLAS_POOL)) for label, argv in commands]
    print("| command | repro.* modules | all modules | numpy | scipy | own threads |")
    print("| --- | ---: | ---: | --- | --- | ---: |")
    for label, result in rows:
        mods = result["modules"]
        threads = result["os_threads"]
        print(
            f"| `{label}` | {len(loaded(mods, 'repro'))} | {len(mods)} "
            f"| {'yes' if 'numpy' in mods else 'no'} | {'yes' if 'scipy' in mods else 'no'} "
            f"| {threads if threads is not None else '-'} |"
        )
