"""The benchmark tracer against the library, at tiny sizes.

``perfbench/spans.py`` wraps fhgames functions in place, at the module
attributes their callers resolve, and its work-count hooks read what the
wrapped calls return.  A result a hook cannot read raises between a
span's open and its close, and the traced run then fails with "spans
closed out of order".  This test sends one tiny call through each
wrapped entry point the benchmark's workloads cross, and checks that
every span closed and that the traced results equal the plain ones.
It also checks that no traced call sweeps a plan larger than the
largest game queried: the tracer's counter hook reads
``CounterEvaluation.rows``, which must stay game-sized, not the
automaton's (memory, state) product.

The workloads also read ``MarkovStrategy`` in four ways: arena-batch's
check builds one from a dict and plays it through
``evaluate_fixed_final``, the ``extract_markov`` render sorts
``choices.items()``, the ``from_markov`` check compares
``to_markov(cs, T).choices`` with the extracted ``choices``, and
``_settled`` iterates ``choices.items()``.  The last test runs those
reads from ``perfbench/workloads.py`` itself at tiny sizes, so that a
change of the strategy's form fails here rather than at the gate.
"""

import contextlib
import importlib
import io
import random
import sys
import types
from pathlib import Path
from unittest import mock

from fhgames.game import store
from fhgames.gadgets import make_F, make_G, make_H, make_M, random_game

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
WORKLOADS = SPANS.with_name("workloads.py")
MODULES = ("numeric", "game", "solver", "counter", "gadgets", "oracle", "verify", "cli")


def load_spans(path: Path = SPANS) -> types.ModuleType:
    """A benchmark module, the tracer by default, executed from its
    source; nothing is written next to it."""
    module = types.ModuleType(path.stem)
    module.__file__ = str(path)
    with mock.patch.dict(sys.modules, {module.__name__: module}):  # for its dataclasses
        exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module.__dict__)
    return module


def library():
    return types.SimpleNamespace(
        **{name: importlib.import_module(f"fhgames.{name}") for name in MODULES}
    )


def run_cli(fh, argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = fh.cli.main(list(argv))
    return code, out.getvalue()


def report_of(report):
    return report.name, report.params, report.verdict, report.evidence


def queries(fh, argvs):
    """The calls, each looked up on its module when it runs."""
    results = [run_cli(fh, argv) for argv in argvs]
    g = fh.gadgets.make_H(3)
    strategy = fh.solver.extract_markov(g, 12)
    automaton = fh.counter.from_markov(strategy)
    results += [
        fh.solver.evaluate_fixed_final(g, 12, strategy)[g.start],
        automaton,
        fh.solver.evaluate_counter(g, 12, automaton).value,
        # M needs the played sweep; the 5-state arena takes the one-sweep branch
        report_of(fh.verify.check_memoryless_horizon(fh.gadgets.make_M(), label="M")),
        report_of(fh.verify.check_memoryless_horizon(random_game(5, random.Random(0)))),
        report_of(fh.verify.check_shortcut_memory(5)),
    ]
    return results


def test_every_span_closes_on_the_workloads_calls(tmp_path):
    fh = library()
    arena = random_game(6, random.Random(4))
    assert arena.controlled_ids(1) and arena.controlled_ids(2)
    doc = tmp_path / "arena.json"
    doc.write_text(store(arena), encoding="utf-8")
    argvs = [
        ("minimize", "--gadget", "F:2", "-T", "22", "--sets", "--json"),
        ("minimize", "--gadget", "G:5", "-T", "30", "--sets"),
        ("minimize", "-g", str(doc), "-T", "20", "--sets", "--player", "2", "--json"),
        ("minimize", "--gadget", "H:3", "-T", "12", "--json"),
        ("solve", "--gadget", "M", "-T", "5", "--json"),
        ("strategy", "--gadget", "H:3", "-T", "8", "--json"),
        ("oracle", "--gadget", "M", "--json"),
        ("oracle", "--gadget", "H:3"),
    ]
    plain = queries(fh, argvs)
    assert [code for code, _ in plain[: len(argvs)]] == [0] * len(argvs)

    spans = load_spans()
    tracer = spans.Tracer()
    main = fh.cli.main
    spans.instrument(tracer, fh)
    try:
        with mock.patch.object(fh.solver, "_sweep", wraps=fh.solver._sweep) as sweep:
            traced = queries(fh, argvs)
    finally:
        tracer.unpatch()
    assert fh.cli.main is main
    games = (make_F(2), make_G(5), arena, make_H(3), make_M(), random_game(5, random.Random(0)))
    plans = [len(call.args[0]) for call in sweep.call_args_list]
    assert plans and max(plans) <= max(len(g.states) for g in games)

    assert traced == plain
    assert tracer._stack == []
    assert all(end is not None for _, _, end, _, _ in tracer.spans)
    names = {name for name, *_ in tracer.spans}
    assert {
        "cli.main",
        "solver.optimal_action_sets",
        "counter.minimal_period",
        "solver.extract_markov",
        "counter.from_markov",
        "solver.final_values",
        "solver.evaluate_fixed_final",
        "solver.evaluate_counter",
        "verify.check_memoryless_horizon",
        "verify.check_shortcut_memory",
        "oracle.min_counter_memory",
    } <= names
    assert tracer.counts["solver.cells"] > 0
    assert [name for name, *_ in tracer.spans].count("solver.values_at") == 3


def issue(query):
    """The query's result, after its render and check pass."""
    raw = query.call()
    query.render(raw)
    assert query.check is None or query.check(raw), query.qid
    return raw


def test_markov_strategy_reads_of_the_workloads(tmp_path, monkeypatch):
    fh = library()
    workloads = load_spans(WORKLOADS)
    monkeypatch.chdir(tmp_path)  # the arena documents are named relative to it
    chains, _ = workloads.arena_batch(fh, 0, {"arena_states": (5, 9, 14)}, str(tmp_path), None)
    for chain in chains:  # solve, then strategy, whose check plays the dict-built strategy
        for query in chain:
            issue(query)

    rng = random.Random(5)
    games = [(make_H(3), 12), (make_M(), 9), (make_F(2), 0)]
    games += [(random_game(8, rng), 16) for _ in range(6)]
    for j, (g, horizon) in enumerate(games):
        extract, value, replicate, evaluate = workloads._replication_queries(
            fh, f"g{j}", g, horizon, seeded=False
        )
        strategy = issue(extract)
        arcs = fh.solver.markov_arcs(g, horizon)
        render = sorted([t, sid, row[t - 1]] for sid, row in arcs.items() for t in range(1, horizon + 1))
        assert extract.render(strategy) == workloads._canonical(render)
        issue(value)
        unrolled = fh.counter.to_markov(issue(replicate), horizon).choices
        assert unrolled == strategy.choices and strategy.choices == unrolled
        issue(evaluate)
        settled = all(len(set(row)) <= 1 for row in arcs.values())
        assert workloads._settled(fh, g, horizon) is settled
