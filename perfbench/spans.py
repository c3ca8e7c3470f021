"""Spans and work counts for the traced run.

The tracer wraps fhgames functions at the module attribute each caller
resolves (``fhgames.cli.extract_markov``, ``fhgames.verify.values_at``,
``fhgames.counter.least_initial_for_period``, ...), so a layer's time
separates from its caller's.  Per-cell functions (``dy_avg`` and the
``Dyadic`` operators) are never wrapped: their work is derived from
``solver.cells`` and ``numeric.max_bits``.

A span is ``[name, start, end, parent, query id]`` with name
``layer.function``; spans stay in memory until the run ends.  A layer's
self time is its spans' time minus their child spans.  The benchmark's
own spans (layer ``bench``) are the set-up and query roots and the
work-count hooks, so the self times of all layers add up to the traced
wall time.
"""

from __future__ import annotations

from collections import Counter
from time import perf_counter

LAYERS = ("cli", "game", "solver", "numeric", "counter", "oracle", "verify", "gadgets", "bench")

COUNTS = (
    "cli.out_bytes",
    "game.doc_bytes",
    "solver.calls",
    "solver.cells",
    "solver.max_exponent",
    "numeric.calls",
    "numeric.max_bits",
    "counter.calls",
    "counter.periods_tried",
    "counter.seq_len",
    "counter.memory_states",
    "oracle.automata_evaluated",
    "oracle.automata_found",
    "oracle.linear_systems",
    "verify.calls",
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.query: str | None = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def open(self, name: str, start: float | None = None) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, perf_counter() if start is None else start, None, parent, self.query])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int, end: float | None = None) -> None:
        if self._stack.pop() != index:
            raise RuntimeError("spans closed out of order")
        self.spans[index][2] = perf_counter() if end is None else end

    def peak(self, key: str, value: int) -> None:
        if value > self.counts[key]:
            self.counts[key] = value

    def wrap(self, name: str, fn, hook=None):
        layer = name.split(".", 1)[0]

        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            self.counts[layer + ".calls"] += 1
            if hook is not None:
                index = self.open("bench.count")
                hook(self, args, kwargs, result)
                self.close(index)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, hook=None) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, hook))

    def unpatch(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def self_times(self) -> dict[str, float]:
        """Self time per layer: span time minus child span time."""
        own = {layer: 0.0 for layer in LAYERS}
        for name, start, end, parent, _ in self.spans:
            duration = end - start
            own[name.split(".", 1)[0]] += duration
            if parent is not None:
                own[self.spans[parent][0].split(".", 1)[0]] -= duration
        return own


# -- work-count hooks ---------------------------------------------------------
#
# Each hook computes its counts from the wrapped call's inputs and output,
# so they repeat exactly from run to run.


def _value_widths(tracer, values) -> None:
    exponent = bits = 0
    for v in values:
        exponent = max(exponent, v.exponent)
        bits = max(bits, v.mantissa.bit_length())
    tracer.peak("solver.max_exponent", exponent)
    tracer.peak("numeric.max_bits", bits)


def _sweep(tracer, args, kwargs, result) -> None:
    g, horizon = args[0], args[1]
    tracer.counts["solver.cells"] += len(g.states) * horizon
    if isinstance(result, dict):  # final_values, evaluate_fixed_final
        _value_widths(tracer, result.values())


def _values_at(tracer, args, kwargs, result) -> None:
    g, checkpoints = args[0], args[1]
    tracer.counts["solver.cells"] += len(g.states) * max(checkpoints, default=0)
    for row in result.values():
        _value_widths(tracer, row.values())


def _product(tracer, args, kwargs, result) -> None:
    g, horizon, cs = args[0], args[1], args[2]
    tracer.counts["solver.cells"] += cs.size * len(g.states) * horizon
    _value_widths(tracer, result.rows[-1].values())


def _oracle_product(tracer, args, kwargs, result) -> None:
    tracer.counts["oracle.automata_evaluated"] += 1
    _product(tracer, args, kwargs, result)


def _numeric(tracer, args, kwargs, result) -> None:
    if isinstance(result, int):
        bits = result.bit_length()
    elif hasattr(result, "mantissa"):
        bits = result.mantissa.bit_length()
    else:  # IntervalEnclosure
        bits = max(result.upper.numerator.bit_length(), result.upper.denominator.bit_length())
    tracer.peak("numeric.max_bits", bits)


def _minimal_period(tracer, args, kwargs, result) -> None:
    tracer.counts["counter.seq_len"] += args[0].length
    tracer.counts["counter.memory_states"] += result.initial + result.period


def _from_markov(tracer, args, kwargs, result) -> None:
    tracer.counts["counter.seq_len"] += args[0].horizon
    tracer.counts["counter.memory_states"] += result.size


def _period_tried(tracer, args, kwargs, result) -> None:
    tracer.counts["counter.periods_tried"] += 1


def _min_memory(tracer, args, kwargs, result) -> None:
    tracer.counts["oracle.automata_found"] += result.memory is not None


def _linear_system(tracer, args, kwargs, result) -> None:
    tracer.counts["oracle.linear_systems"] += 1


def _doc_loaded(tracer, args, kwargs, result) -> None:
    tracer.counts["game.doc_bytes"] += len(args[0].encode())


def _doc_stored(tracer, args, kwargs, result) -> None:
    tracer.counts["game.doc_bytes"] += len(result.encode())


def instrument(tracer: Tracer, fh) -> None:
    """Wrap every layer boundary the workloads cross."""
    patch = tracer.patch
    # entry points the benchmark itself calls
    patch(fh.cli, "main", "cli.main")
    patch(fh.solver, "extract_markov", "solver.extract_markov", _sweep)
    patch(fh.solver, "evaluate_fixed_final", "solver.evaluate_fixed_final", _sweep)
    patch(fh.solver, "evaluate_counter", "solver.evaluate_counter", _product)
    patch(fh.counter, "from_markov", "counter.from_markov", _from_markov)
    for attr in dir(fh.verify):
        if attr.startswith("check_"):
            patch(fh.verify, attr, f"verify.{attr}")
    for attr in ("random_game", "make_H", "make_M", "primorial"):
        patch(fh.gadgets, attr, f"gadgets.{attr}")
    patch(fh.game, "store", "game.store", _doc_stored)
    # lower layers, at the names the CLI resolves
    patch(fh.cli, "load", "game.load", _doc_loaded)
    for attr in ("final_values", "extract_markov", "optimal_action_sets"):
        patch(fh.cli, attr, f"solver.{attr}", _sweep)
    patch(fh.cli, "minimal_period", "counter.minimal_period", _minimal_period)
    patch(fh.cli, "from_markov", "counter.from_markov", _from_markov)
    # ... at the names verify, oracle and counter resolve
    patch(fh.verify, "values_at", "solver.values_at", _values_at)
    patch(fh.verify, "solve_infinite", "oracle.solve_infinite")
    patch(fh.verify, "min_counter_memory", "oracle.min_counter_memory", _min_memory)
    patch(fh.verify, "make_M", "gadgets.make_M")
    for attr in ("fib_nstep", "run_probability", "run_threshold", "exp_enclosure"):
        patch(fh.verify, attr, f"numeric.{attr}", _numeric)
    patch(fh.oracle, "reach_probabilities", "oracle.reach_probabilities", _linear_system)
    patch(fh.oracle, "final_values", "solver.final_values", _sweep)
    patch(fh.oracle, "evaluate_counter", "solver.evaluate_counter", _oracle_product)
    patch(fh.counter, "least_initial_for_period", "counter.least_initial_for_period", _period_tried)
