"""Lint-style guards: hot-path Binomial draws, instrumentation, the scan's
``out=`` writes, and knobs.

Every Binomial count a hot path draws must come from
:func:`repro.backend.binomial`, the exact inversion sampler.  It returns
``Generator.binomial``'s bits, so a stray ``rng.binomial(...)`` would pass
every golden while halving draw speed.  This test parses the engine modules
and flags, inside each designated hot path, any ``<expr>.binomial(...)``
call and any module-level ``np.random.<draw>(...)`` call (a draw on NumPy's
legacy global generator); ``binomial(rng, ...)`` is the one allowed
spelling, and the engine modules must bind that name to the sampler.

The guard also pins the observability layer's cost model: hot paths may
touch instrumentation only through the module-level no-op handles
(``_TRACE`` / ``_METRICS`` — one ``None`` check when disabled), never
through the public names or a live tracer object, and never from inside a
``for``/``while`` loop, so steady-state kernels stay instrumentation-free
per iteration even when tracing is on.  Every function of the engine
modules that holds a ``for``/``while`` loop is either one of those hot paths
or declared not hot, so a new loop cannot slip past both guards.

The round scan's loops must not allocate: every NumPy call inside them
passes ``out=`` (``np.copyto`` aside), whether it spells ``np.f``, a local
alias of it or a ufunc method.

Another guard pins the package's environment knobs: every ``REPRO_*`` name
in a string constant of ``src/repro`` (docstrings aside) must be on one
list, so adding a knob is a visible test edit.

The last keeps SciPy out of ``import repro``: the functions that call it
import it where they call it, so a run that never calls them never pays
SciPy's import time and memory.
"""

from __future__ import annotations

import ast
import inspect
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

import repro.backend
import repro.simulation.batch as batch
import repro.simulation.dynamics as dynamics
import repro.simulation.rare_events as rare_events
import repro.simulation.scenarios as scenarios
import repro.simulation.streaming as streaming
import repro.simulation.topology as topology

#: Names the engines may import NumPy under.
NUMPY_ALIASES = {"np", "numpy"}

#: The hot-path functions the guard covers, as (module, qualname) pairs.
HOT_PATHS = [
    (batch, "draw_mining_traces"),
    (batch, "_bernoulli_counts"),
    (batch, "count_convergence_opportunities_batch"),
    (batch, "_opportunity_mask"),
    (batch, "worst_window_deficits"),
    (batch, "_window_drawdown"),
    (batch, "BatchSimulation.run_traces"),
    (scenarios, "_max_window_successes"),
    (scenarios, "_transpose_into"),
    (scenarios, "ScenarioSimulation.run_traces"),
    (scenarios, "ScenarioSimulation._scan"),
    (topology, "convergence_opportunity_mask_with_delays"),
    (topology, "_delay_opportunity_mask"),
    (topology, "_window_max"),
    (topology, "PeerGraphTopology.distances"),
    (topology, "FixedDeltaDelayModel.draw_delays"),
    (topology, "UniformDelayModel.draw_delays"),
    (topology, "TruncatedGeometricDelayModel.draw_delays"),
    (topology, "PeerGraphDelayModel.draw_delays"),
    (dynamics, "compile_eclipse_offsets"),
    (dynamics, "_epoch_distances"),
    (dynamics, "_masked_min_plus"),
    (dynamics, "compile_schedule"),
    (dynamics, "TimeVaryingDelayModel.draw_delays"),
    (rare_events, "draw_tilted_traces"),
    (rare_events, "log_likelihood_ratios"),
    (rare_events, "cross_entropy_tilt"),
    (rare_events, "RareEventSimulation.run_plain"),
    (rare_events, "RareEventSimulation.run_tilted"),
    (rare_events, "RareEventSimulation.run_splitting"),
    (rare_events, "RareEventSimulation._first_crossings"),
    (streaming, "_StreamedSimulation._chunk_loop"),
    (streaming, "_StreamedSimulation._draw_block"),
    (streaming, "_StreamedSimulation._draw_call"),
    (streaming, "StreamingAccumulator.update"),
    (streaming, "ScenarioStreamingAccumulator.update"),
    (streaming, "OnlineMoments.update"),
    (streaming, "OnlineMoments.combine"),
    (streaming, "DeficitHistogram.update"),
]


#: Engine functions holding a ``for``/``while`` loop that are not hot paths:
#: reference oracles and the replay's attribution helper, graph generators,
#: constructors and validators, the dynamics epoch walk, the cut-window view
#: and the streamed result codec.
NOT_HOT = [
    (scenarios, "rotating_honest_attribution"),
    (scenarios, "reference_partition_scan"),
    (topology, "PeerGraphTopology._from_edges"),
    (topology, "PeerGraphTopology.random_regular"),
    (topology, "PeerGraphTopology.erdos_renyi"),
    (topology, "MiningPowerProfile.__init__"),
    (dynamics, "DynamicsSchedule.__init__"),
    (dynamics, "_epoch_states"),
    (dynamics, "reference_compile_schedule"),
    (dynamics, "partition_windows"),
    (rare_events, "ExponentialTilt.__post_init__"),
    (streaming, "_StreamedResult.payload"),
]

#: The modules whose loops the two guards police.
ENGINE_MODULES = (batch, scenarios, topology, dynamics, rare_events, streaming)


def _looping_functions(tree: ast.Module) -> set:
    """Qualnames of the functions and methods in ``tree`` holding a loop."""

    def walk(scope, prefix):
        for node in scope:
            if isinstance(node, ast.ClassDef):
                yield from walk(node.body, f"{prefix}{node.name}.")
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
                isinstance(child, (ast.For, ast.While, ast.AsyncFor))
                for child in ast.walk(node)
            ):
                yield prefix + node.name

    return set(walk(tree.body, ""))


def test_every_engine_loop_is_a_hot_path_or_declared_not_hot():
    """A loop added to an engine module joins ``HOT_PATHS`` (and with it
    both guards) or is declared in ``NOT_HOT``; a stale ``NOT_HOT`` entry
    fails too, so the exemptions cannot outlive their loops."""
    planted = ast.parse(
        "class A:\n"
        "    def f(self):\n"
        "        while True:\n"
        "            pass\n"
        "    def g(self):\n"
        "        return [x for x in ()]\n"
        "def h():\n"
        "    for _ in ():\n"
        "        pass\n"
    )
    assert _looping_functions(planted) == {"A.f", "h"}
    looping = {
        (module.__name__, name)
        for module in ENGINE_MODULES
        for name in _looping_functions(ast.parse(inspect.getsource(module)))
    }
    hot = {(module.__name__, name) for module, name in HOT_PATHS}
    not_hot = {(module.__name__, name) for module, name in NOT_HOT}
    assert sorted(looping - hot - not_hot) == []
    assert sorted(not_hot - looping) == []
    assert sorted(hot & not_hot) == []


def _resolve_function_node(module, qualname: str) -> ast.FunctionDef:
    """The AST node for ``qualname`` (``Class.method`` or plain function)."""
    tree = ast.parse(inspect.getsource(module))
    parts = qualname.split(".")
    scope = tree.body
    node = None
    for part in parts:
        node = next(
            (
                child
                for child in scope
                if isinstance(
                    child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
                )
                and child.name == part
            ),
            None,
        )
        assert node is not None, f"{module.__name__}.{qualname} not found"
        scope = getattr(node, "body", [])
    assert isinstance(node, ast.FunctionDef)
    return node


def _draw_violations(node: ast.FunctionDef) -> list:
    """Binomial draws that bypass :func:`repro.backend.binomial`."""
    violations = []
    for child in ast.walk(node):
        if not isinstance(child, ast.Call) or not isinstance(
            child.func, ast.Attribute
        ):
            continue
        function = child.func
        owner = function.value
        global_draw = (
            isinstance(owner, ast.Attribute)
            and owner.attr == "random"
            and isinstance(owner.value, ast.Name)
            and owner.value.id in NUMPY_ALIASES
            and hasattr(np.random.RandomState, function.attr)
        )
        if function.attr == "binomial" or global_draw:
            violations.append(f"{ast.unparse(function)}() at line {child.lineno}")
    return violations


#: The hot paths plus the scenario engine's minority-split draw.
DRAW_PATHS = [*HOT_PATHS, (scenarios, "ScenarioSimulation._third_draw")]


@pytest.mark.parametrize(
    "module,qualname",
    DRAW_PATHS,
    ids=[f"{module.__name__.split('.')[-1]}:{name}" for module, name in DRAW_PATHS],
)
def test_hot_path_draws_binomial_counts_through_the_sampler(module, qualname):
    node = _resolve_function_node(module, qualname)
    violations = _draw_violations(node)
    assert not violations, (
        f"{module.__name__}.{qualname} draws around repro.backend.binomial: "
        + ", ".join(violations)
    )


def test_engine_modules_bind_the_sampler():
    """A bare ``binomial(...)`` in an engine is the backend's sampler, not
    ``numpy.random.binomial`` imported under the same name."""
    for module in ENGINE_MODULES:
        bound = vars(module).get("binomial", repro.backend.binomial)
        assert bound is repro.backend.binomial, module.__name__
    assert vars(batch)["binomial"] is repro.backend.binomial


def test_draw_guard_actually_detects_violations():
    """The guard flags the planted draws and passes the sampler's spelling
    (meta-test, so an edit to the detector cannot quietly blind it)."""
    source = (
        "def bad(rng, shape):\n"
        "    honest = rng.binomial(700, 1e-4, size=shape)\n"
        "    adversary = np.random.binomial(300, 1e-4, size=shape)\n"
        "    return honest, adversary, numpy.random.random(shape)\n"
    )
    found = _draw_violations(ast.parse(source).body[0])
    assert any(item.startswith("rng.binomial()") for item in found)
    assert any(item.startswith("np.random.binomial()") for item in found)
    assert any(item.startswith("numpy.random.random()") for item in found)
    assert len(found) == 3

    clean = (
        "def good(rng, seed, shape):\n"
        "    block = np.random.default_rng(np.random.SeedSequence(seed))\n"
        "    honest = binomial(rng, 700, 1e-4, shape)\n"
        "    return honest, rng.random(shape), block.integers(0, 3, shape)\n"
    )
    assert not _draw_violations(ast.parse(clean).body[0])


# ----------------------------------------------------------------------
# The scan's round loop writes through ``out=``
# ----------------------------------------------------------------------

#: Functions whose loops may call NumPy only with ``out=``: the round scan
#: holds its state in workspace buffers and per-call tiles, so a call that
#: allocates is a fresh vector every round.
OUT_PATHS = [
    (scenarios, "ScenarioSimulation._scan"),
    (scenarios, "_transpose_into"),
]

#: NumPy functions that write into their first argument, so need no ``out=``.
OUT_FREE = {"copyto"}


def _numpy_name(node):
    """``"add"`` for ``np.add`` (any NumPy alias), else ``None``."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in NUMPY_ALIASES
    ):
        return node.attr
    return None


def _numpy_locals(node: ast.FunctionDef) -> dict:
    """Local names bound to NumPy functions in ``node`` (``add = np.add`` or
    ``add, subtract = np.add, np.subtract``), mapped to the NumPy name."""
    aliases = {}
    for child in ast.walk(node):
        if not isinstance(child, ast.Assign):
            continue
        for target in child.targets:
            if isinstance(target, ast.Tuple) and isinstance(child.value, ast.Tuple):
                pairs = zip(target.elts, child.value.elts)
            else:
                pairs = [(target, child.value)]
            for name, value in pairs:
                if isinstance(name, ast.Name) and _numpy_name(value) is not None:
                    aliases[name.id] = _numpy_name(value)
    return aliases


def _out_violations(node: ast.FunctionDef) -> list:
    """NumPy calls inside a loop of ``node`` that pass no ``out=``.

    A call counts as NumPy's when it spells ``np.f(...)``, calls a local
    bound to ``np.f``, or calls a ufunc method on either (``add.reduce``);
    ``np.copyto`` is allowed, and array methods are not NumPy calls."""
    aliases = _numpy_locals(node)

    def numpy_name(function):
        if isinstance(function, ast.Name):
            return aliases.get(function.id)
        return _numpy_name(function)

    calls = {
        id(child): child
        for loop in ast.walk(node)
        if isinstance(loop, (ast.For, ast.While, ast.AsyncFor))
        for child in ast.walk(loop)
        if isinstance(child, ast.Call)
    }
    violations = []
    for call in sorted(calls.values(), key=lambda call: call.lineno):
        name = numpy_name(call.func)
        if name is None and isinstance(call.func, ast.Attribute):
            owner = numpy_name(call.func.value)
            name = None if owner is None else f"{owner}.{call.func.attr}"
        if name is None or name in OUT_FREE:
            continue
        if not any(keyword.arg == "out" for keyword in call.keywords):
            violations.append(f"{name}() at line {call.lineno}")
    return violations


@pytest.mark.parametrize(
    "module,qualname",
    OUT_PATHS,
    ids=[f"{module.__name__.split('.')[-1]}:{name}" for module, name in OUT_PATHS],
)
def test_scan_loop_numpy_calls_write_through_out(module, qualname):
    violations = _out_violations(_resolve_function_node(module, qualname))
    assert not violations, (
        f"{module.__name__}.{qualname} allocates inside its loop: "
        + ", ".join(violations)
    )


def test_out_guard_actually_detects_violations():
    """Meta-test: the guard flags allocating NumPy calls in a loop, through
    ``np.``, a local alias or a ufunc method, and passes ``out=``, ``copyto``,
    array methods and calls outside every loop."""
    source = (
        "def bad(rows, out):\n"
        "    add = np.add\n"
        "    maximum, copyto = np.maximum, numpy.copyto\n"
        "    total = np.zeros(3)\n"
        "    for row in rows:\n"
        "        np.add(row, 1)\n"
        "        add(row, 1)\n"
        "        while maximum.reduce(row, axis=0).any():\n"
        "            np.maximum(row, 0, out=out)\n"
        "            add.reduce(row, axis=0, out=out)\n"
        "            copyto(out, row)\n"
        "            row.any()\n"
        "    return total\n"
    )
    found = _out_violations(ast.parse(source).body[0])
    assert found == [
        "add() at line 6",
        "add() at line 7",
        "maximum.reduce() at line 8",
    ]


# ----------------------------------------------------------------------
# Observability hygiene: handle-only dispatch, no per-iteration calls
# ----------------------------------------------------------------------

#: The module-level no-op handles hot paths may dispatch through.
INSTRUMENTATION_HANDLES = {"_TRACE", "_METRICS"}

#: Public observability names whose appearance inside a hot path means the
#: function bypassed the handle pattern (and with it the zero-overhead
#: disabled path).
FORBIDDEN_INSTRUMENTATION_NAMES = {
    "TRACE",
    "METRICS",
    "Tracer",
    "Metrics",
    "use_tracer",
    "use_metrics",
    "install_from_env",
}


def _instrumentation_violations(node: ast.FunctionDef) -> list:
    """Hot-path instrumentation must go through ``_TRACE``/``_METRICS``."""
    violations = []
    for child in ast.walk(node):
        if (
            isinstance(child, ast.Name)
            and child.id in FORBIDDEN_INSTRUMENTATION_NAMES
        ):
            violations.append(f"{child.id} at line {child.lineno}")
    return violations


def _loop_instrumentation_violations(node: ast.FunctionDef) -> list:
    """No ``_TRACE.span`` / ``_METRICS.*`` call inside a for/while body.

    Spans and counters belong at call boundaries; a per-iteration dispatch
    would execute trials-times-rounds handle checks and, with tracing on,
    allocate a span per round — exactly the overhead the layer promises
    not to add.
    """
    violations = []
    for loop in ast.walk(node):
        if not isinstance(loop, (ast.For, ast.While, ast.AsyncFor)):
            continue
        for child in ast.walk(loop):
            if child is loop:
                continue
            if (
                isinstance(child, ast.Attribute)
                and isinstance(child.value, ast.Name)
                and child.value.id in INSTRUMENTATION_HANDLES
            ):
                violations.append(
                    f"{child.value.id}.{child.attr} inside loop at line "
                    f"{child.lineno}"
                )
    return violations


@pytest.mark.parametrize(
    "module,qualname",
    HOT_PATHS,
    ids=[f"{module.__name__.split('.')[-1]}:{name}" for module, name in HOT_PATHS],
)
def test_hot_path_instrumentation_is_handle_only_and_loop_free(module, qualname):
    node = _resolve_function_node(module, qualname)
    violations = _instrumentation_violations(node)
    violations += _loop_instrumentation_violations(node)
    assert not violations, (
        f"{module.__name__}.{qualname} breaks the zero-overhead "
        "instrumentation contract: " + ", ".join(violations)
    )


#: Runner orchestration paths covered by the instrumentation guard only
#: (they legitimately use NumPy for seeding/persistence, so the tensor-op
#: guard does not apply): spans/counters at call boundaries, and — since
#: grid loops run once per *point* — never from inside a loop body.  All
#: per-item telemetry merging is delegated to
#: :func:`repro.observability.distributed.merge_worker_telemetry`.
INSTRUMENTED_ORCHESTRATION_PATHS = [
    "ExperimentRunner._cached_run",
    "ExperimentRunner._run_grid",
]


@pytest.mark.parametrize("qualname", INSTRUMENTED_ORCHESTRATION_PATHS)
def test_runner_orchestration_instrumentation_is_handle_only_and_loop_free(
    qualname,
):
    import repro.simulation.runner as runner

    node = _resolve_function_node(runner, qualname)
    violations = _instrumentation_violations(node)
    violations += _loop_instrumentation_violations(node)
    assert not violations, (
        f"{runner.__name__}.{qualname} breaks the zero-overhead "
        "instrumentation contract: " + ", ".join(violations)
    )


def test_instrumented_modules_bind_private_handles():
    """Engine modules must hold the handles under the private names the
    loop guard inspects — a differently-named import would blind it."""
    import repro.backend.workspace as workspace

    engine_modules = (
        batch,
        scenarios,
        topology,
        dynamics,
        rare_events,
        streaming,
    )
    for module in (*engine_modules, workspace):
        bound = INSTRUMENTATION_HANDLES & set(vars(module))
        assert "_METRICS" in bound, f"{module.__name__} lacks _METRICS handle"
    from repro.observability import METRICS, TRACE

    for module in engine_modules:
        assert vars(module)["_TRACE"] is TRACE
        assert vars(module)["_METRICS"] is METRICS


def test_instrumentation_guard_actually_detects_violations():
    """Meta-test: the two new detectors must flag planted violations."""
    source = (
        "def bad(x):\n"
        "    with use_tracer() as t:\n"
        "        for item in x:\n"
        "            with _TRACE.span('per-item'):\n"
        "                _METRICS.increment('items')\n"
        "    return TRACE\n"
    )
    node = ast.parse(source).body[0]
    names = _instrumentation_violations(node)
    assert any("use_tracer" in item for item in names)
    assert any("TRACE at" in item for item in names)
    loops = _loop_instrumentation_violations(node)
    assert any("_TRACE.span inside loop" in item for item in loops)
    assert any("_METRICS.increment inside loop" in item for item in loops)

    clean = (
        "def good(x):\n"
        "    with _TRACE.span('call'):\n"
        "        for item in x:\n"
        "            total = item\n"
        "    _METRICS.increment('calls')\n"
        "    return total\n"
    )
    clean_node = ast.parse(clean).body[0]
    assert not _instrumentation_violations(clean_node)
    assert not _loop_instrumentation_violations(clean_node)


# ----------------------------------------------------------------------
# Environment knobs: one pinned list
# ----------------------------------------------------------------------
#: Every environment variable the package reads.
ENVIRONMENT_KNOBS = {
    "REPRO_CHUNK_CELLS",
    "REPRO_TRACE",
    "REPRO_PROGRESS",
    "REPRO_RUN_LOG",
    "REPRO_BENCH_TRAJECTORY",
}


def _knob_names(tree: ast.AST) -> set:
    """``REPRO_*`` names in the string constants of ``tree``, docstrings aside."""
    docstrings = set()
    for node in ast.walk(tree):
        body = getattr(node, "body", None)
        if (
            isinstance(
                node,
                (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef),
            )
            and body
            and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)
        ):
            docstrings.add(id(body[0].value))
    return {
        name
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and id(node) not in docstrings
        for name in re.findall(r"REPRO_[A-Z_]+", node.value)
    }


def test_environment_knobs_are_the_pinned_list():
    planted = (
        '"""Docs may name REPRO_DOC."""\n'
        'def f(x):\n'
        '    """Nor REPRO_DOC2."""\n'
        '    return os.environ.get("REPRO_A"), f"REPRO_B={x}"\n'
    )
    assert _knob_names(ast.parse(planted)) == {"REPRO_A", "REPRO_B"}
    package = pathlib.Path(repro.backend.__file__).parent.parent
    found = set()
    for path in sorted(package.rglob("*.py")):
        found |= _knob_names(ast.parse(path.read_text(encoding="utf-8")))
    assert found == ENVIRONMENT_KNOBS


def test_importing_repro_and_building_a_runner_loads_no_scipy():
    """In a fresh interpreter, ``import repro`` plus an ``ExperimentRunner``
    leave no ``scipy`` module in ``sys.modules``."""
    source = pathlib.Path(repro.backend.__file__).parent.parent.parent
    path = os.pathsep.join(filter(None, [str(source), os.environ.get("PYTHONPATH")]))
    program = (
        "import sys, repro\n"
        "from repro.simulation import ExperimentRunner\n"
        "ExperimentRunner(cache_dir=None)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    completed = subprocess.run(
        [sys.executable, "-c", program],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip() == "[]"
