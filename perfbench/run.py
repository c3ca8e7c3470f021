"""fhgames benchmark.

Run from the root of a checkout; fhgames is imported from ./src:

    python3 perfbench/run.py --workload arena-batch --seed 0 --seconds 25 --trace 0

One client in one process issues the workload's queries back to back
(a closed loop), round after round, until --seconds have passed and at
least five rounds and 100 queries were issued.  Each round starts with
its own set-up: a fresh import of fhgames and the inputs built from the
seed.  The last line of stdout is the result, ``{"correct", "attempted",
"failed", "metrics"}``; the line before it records the environment, the
query counts and any failures.  With --trace 1 the run issues the
workload's headline queries once, then alternates untraced and traced
rounds and reports the per-layer metrics instead.  See
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import hostspeed  # noqa: E402
import spans  # noqa: E402
from workloads import BUILDERS, SIZES, GateError, build, plan  # noqa: E402

DIGESTS = os.path.join(HERE, "digests.json")
OUT = os.path.join(HERE, "out")
MIN_QUERIES = 100
MIN_ROUNDS = 5
MODULES = ("numeric", "game", "solver", "counter", "gadgets", "oracle", "verify", "cli")


class Fhgames:
    """The fhgames modules of one import."""

    def __init__(self):
        for name in MODULES:
            setattr(self, name, importlib.import_module(f"fhgames.{name}"))


def import_fhgames(src: str) -> Fhgames:
    """Import fhgames afresh from ``src``, never from an installed copy."""
    for name in [m for m in sys.modules if m == "fhgames" or m.startswith("fhgames.")]:
        del sys.modules[name]
    if src not in sys.path:
        sys.path.insert(0, src)
    fh = Fhgames()
    if not os.path.abspath(fh.cli.__file__).startswith(src + os.sep):
        raise ImportError(f"fhgames was not imported from {src}")
    return fh


def environment(src: str, seed: int) -> dict:
    cpu = platform.processor()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            models = [line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")]
            cpu = models[0] if models else cpu
    digest = hashlib.sha256()
    package = os.path.join(src, "fhgames")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as handle:
                digest.update(name.encode() + b"\0" + handle.read())
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "fhgames_commit": git_commit(os.path.dirname(src)),
        "fhgames_src_sha256": digest.hexdigest(),
        "seed": seed,
    }


def git_commit(root: str) -> str | None:
    """HEAD of the checkout's own .git, or None outside a git checkout."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        with contextlib.suppress(OSError):
            with open(os.path.join(git, ref), encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as handle:
            return next((ln.split()[0] for ln in handle if ln.rstrip().endswith(" " + ref)), None)
    except OSError:
        return None


def set_up(src, workload, seed, scale, drawn, tracer=None):
    """A fresh import of fhgames, the inputs generated and the game
    documents written to a fresh directory.  Returns (queries, headline
    queries, directory, start, end).  With a tracer, fhgames is
    instrumented right after the import and stays so until the caller
    unpatches it."""
    start = perf_counter()
    if tracer is not None:
        tracer.query = "setup"
        root = tracer.open("bench.setup", start)
    fh = import_fhgames(src)
    if tracer is not None:
        spans.instrument(tracer, fh)
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT)
    queries, headline = build(workload, fh, seed, SIZES[scale], workdir, drawn)
    end = perf_counter()
    if tracer is not None:
        tracer.close(root, end)
    return queries, headline, workdir, start, end


def remove_dir(path: str) -> None:
    for name in os.listdir(path):
        os.remove(os.path.join(path, name))
    os.rmdir(path)


class Gate:
    """Correctness gate: digests of exact results and cheap cross-checks.

    The first round hashes every result, compares it with the committed
    digest where one exists and runs the query's cross-check; later
    rounds must reproduce the first round's digests.
    """

    def __init__(self, expected: dict[str, str]):
        self.expected = expected
        self.seen: dict[str, str] = {}
        self.failures: list[dict] = []

    def judge(self, query, raw, error) -> int:
        """Returns the size of the rendered result; records any failure."""
        try:
            if error is not None:
                raise error
            body = query.render(raw)
            digest = hashlib.sha256(body).hexdigest()
            if query.qid in self.seen:
                if digest != self.seen[query.qid]:
                    raise GateError("result differs from the first round")
                return len(body)
            self.seen[query.qid] = digest
            if query.check is not None and not query.check(raw):
                raise GateError("cross-check failed")
            if digest != self.expected.get(query.qid, digest):
                raise GateError("digest differs from the committed one")
            return len(body)
        except Exception as exc:  # a failed query is counted, never fatal
            self.failures.append({"query": query.qid, "error": f"{type(exc).__name__}: {exc}"})
            return 0


def run_round(queries, gate, tracer=None, calibration=None) -> tuple[list[tuple[float, float]], int]:
    """Issue every query once, probing the host's speed between queries;
    returns each query's (start, end) and the bytes the CLI printed."""
    intervals, out_bytes = [], 0
    for query in queries:
        start = perf_counter()
        if tracer is not None:
            tracer.query = query.qid
            root = tracer.open("bench.query", start)
        raw = error = None
        try:
            raw = query.call()
        except Exception as exc:
            error = exc
        end = perf_counter()
        if tracer is not None:
            tracer.close(root, end)
        intervals.append((start, end))
        if tracer is not None:
            span = tracer.open("bench.gate", end)
        size = gate.judge(query, raw, error)
        if tracer is not None:
            tracer.close(span)
        if query.cli:
            out_bytes += size
        del raw
        if calibration is not None:
            calibration.probe(force=False)
    return intervals, out_bytes


def load_expected(workload: str, seed: int) -> dict[str, str]:
    """Committed digests: seed-independent queries on every seed, the
    seeded ones only at the seed they were recorded with."""
    with open(DIGESTS, encoding="utf-8") as handle:
        table = json.load(handle)
    expected = dict(table["fixed"].get(workload, {}))
    if seed == table["seed"]:
        expected.update(table["seeded"].get(workload, {}))
    return expected


def save_digests(workload, seed, queries, gate) -> None:
    table = {"seed": seed, "fixed": {}, "seeded": {}}
    with contextlib.suppress(FileNotFoundError):
        with open(DIGESTS, encoding="utf-8") as handle:
            table = json.load(handle)
    if seed != table["seed"]:
        raise SystemExit(f"digests are recorded at seed {table['seed']}")
    if gate.failures:
        raise SystemExit(f"not recording digests of a failed run: {gate.failures[:3]}")
    for kind, seeded in (("fixed", False), ("seeded", True)):
        table[kind][workload] = {q.qid: gate.seen[q.qid] for q in queries if q.seeded == seeded}
    with open(DIGESTS, "w", encoding="utf-8") as handle:
        json.dump(table, handle, indent=1, sort_keys=True)
        handle.write("\n")


class TracedRound:
    def __init__(self, query_s, wall_s, tracer):
        self.query_s = query_s  # the round's query time, scaled as wall_s is
        self.wall_s = wall_s  # set-up, queries and gate as measured, timed apart from the spans
        self.own = tracer.self_times()
        self.counts = tracer.counts
        self.spans = tracer.spans


def layer_metrics(traced: list[TracedRound], plain_query_s: float) -> dict:
    """Per-layer metrics of the traced round whose query time is the
    median one."""
    middle = statistics.median(r.query_s for r in traced)
    chosen = min(traced, key=lambda r: abs(r.query_s - middle))
    own, counts = chosen.own, chosen.counts
    metrics = {f"{layer}.self_s": (own[layer], "s") for layer in spans.LAYERS}
    for key in spans.COUNTS:
        metrics[key] = (counts[key], "bytes" if key.endswith("_bytes") else "count")
    solver_s = own["solver"]
    metrics["solver.cells_per_s"] = (counts["solver.cells"] / solver_s if solver_s else 0.0, "1/s")
    evaluated = counts["oracle.automata_evaluated"]
    found = counts["oracle.automata_found"]
    metrics["oracle.hit_ratio"] = (found / evaluated if evaluated else 0.0, "ratio")
    metrics["trace.wall_s"] = (chosen.wall_s, "s")
    metrics["trace.overhead"] = (middle / plain_query_s, "ratio")
    return metrics, chosen


def run(workload, seed, seconds, trace, scale="full", expected=None, src="src", headline=None):
    """One benchmark run; returns (result, detail, gate, queries of the
    last round plus the headline queries, reported traced round or None).

    ``headline`` (default: the same as ``trace``) issues the headline
    queries once, in the first round, apart from its timed queries."""
    src = os.path.abspath(src)
    headline = bool(trace) if headline is None else headline
    gate = Gate(load_expected(workload, seed) if expected is None else expected)
    drawn = plan(workload, import_fhgames(src), seed, SIZES[scale])
    # scaled to the reference host's speed (see hostspeed.py), and as measured
    setups, plain, times, raw = [], [], [], {"setup_s": [], "wall_s": [], "query_s": []}
    traced, headline_s = [], {}
    calibration = hostspeed.Calibration()
    cwd = os.getcwd()
    began = perf_counter()
    while True:
        tracer = spans.Tracer() if trace and len(plain) > len(traced) else None
        workdir = None
        calibration.tracer = None
        calibration.probe()
        start = perf_counter()
        try:
            queries, headline_queries, workdir, setup_start, setup_end = set_up(
                src, workload, seed, scale, drawn, tracer)
            calibration.tracer = tracer
            calibration.probe()
            os.chdir(workdir)  # documents are named relative to it, so outputs are stable
            if headline and not plain:
                for query in headline_queries:
                    (query_start, query_end), = run_round([query], gate)[0]
                    headline_s[query.qid] = query_end - query_start
                calibration.probe()
            intervals, out_bytes = run_round(queries, gate, tracer, calibration)
            end = perf_counter()
        finally:
            if tracer is not None:
                tracer.unpatch()
            os.chdir(cwd)
            if workdir is not None:
                remove_dir(workdir)
        calibration.tracer = None
        calibration.probe()
        # the previous import's modules are reference cycles: free them
        # now, outside the timers, so every round starts from the same heap
        gc.collect()
        round_times = [calibration.scaled(s, e) for s, e in intervals]
        if tracer is not None:
            tracer.counts["cli.out_bytes"] += out_bytes
            traced.append(TracedRound(sum(round_times), end - start, tracer))
        else:
            setups.append(calibration.scaled(setup_start, setup_end))
            plain.append(sum(round_times))
            times += round_times
            raw["setup_s"].append(setup_end - setup_start)
            raw["query_s"] += [e - s for s, e in intervals]
            raw["wall_s"].append(sum(e - s for s, e in intervals))
        if (
            perf_counter() - began >= seconds
            and (traced if trace else len(plain) >= MIN_ROUNDS and len(times) >= MIN_QUERIES)
        ):
            break

    attempted = (len(plain) + len(traced)) * len(queries) + len(headline_s)
    detail = {
        "workload": workload,
        "scale": scale,
        "trace": trace,
        "env": environment(src, seed),
        "queries_per_round": len(queries),
        "rounds": len(plain),
        "query_count": len(times),
        "setups": len(setups),
        "round_s": [round(t, 4) for t in plain],
        "kernel_ms": statistics.median(calibration.kernel_s) * 1000,
        "reference_kernel_ms": hostspeed.REFERENCE_S * 1000,
        "as_measured": {
            "wall_s": statistics.median(raw["wall_s"]),
            "query_p50_s": statistics.median(raw["query_s"]),
            "query_p90_s": statistics.quantiles(raw["query_s"], n=10)[8],
            "setup_s": statistics.median(raw["setup_s"]),
        },
        "headline_s": headline_s,
        "failures": gate.failures[:20],
    }
    chosen = None
    if trace:
        metrics, chosen = layer_metrics(traced, statistics.median(plain))
        detail["traced_rounds"] = len(traced)
        detail["counts_repeat"] = all(r.counts == traced[0].counts for r in traced)
        if not detail["counts_repeat"]:
            gate.failures.append({"query": "*", "error": "work counts differ between traced rounds"})
    else:
        metrics = {
            "wall_s": (statistics.median(plain), "s"),
            "query_p50_s": (statistics.median(times), "s"),
            "query_p90_s": (statistics.quantiles(times, n=10)[8], "s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        }
    detail["fail_frac"] = len(gate.failures) / attempted
    result = {
        "correct": not gate.failures,
        "attempted": attempted,
        "failed": min(len(gate.failures), attempted),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return result, detail, gate, queries + headline_queries, chosen


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="fhgames benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(BUILDERS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-digests", action="store_true",
                        help="record this run's digests in digests.json instead of checking them")
    args = parser.parse_args(argv)
    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "fhgames", "__init__.py")):
        print(f"fhgames sources not found under {src}; run from the repository root", file=sys.stderr)
        return 2
    result, detail, gate, queries, chosen = run(
        args.workload, args.seed, args.seconds, args.trace,
        expected={} if args.write_digests else None, src=src,
        headline=bool(args.trace or args.write_digests),
    )
    if args.write_digests:
        save_digests(args.workload, args.seed, queries, gate)
    if chosen is not None:
        path = os.path.join(OUT, f"spans-{args.workload}-{args.seed}.jsonl")
        with open(path, "w", encoding="utf-8") as handle:
            for span in chosen.spans:
                handle.write(json.dumps(span) + "\n")
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
