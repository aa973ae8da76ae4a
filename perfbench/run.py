"""End-to-end benchmark of the paper's workflows: learn, startup,
deploy.

Run from the repository root::

    python3 perfbench/run.py --workload startup --seed 1 --seconds 18 \\
        --trace 0

The run sets the workload up, makes whole rounds of it for about
``--seconds``, checks the outputs, and prints the metrics by name and
unit.  Its last line of output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones (median over rounds);
with ``--trace 1`` they are the per-layer ones of one traced round, plus
the tracing overhead against an untraced round.
See ``perfbench/README.md``.
"""

import argparse
import contextlib
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCRATCH = os.path.join(ROOT, ".perfbench_tmp")

#: Settings the program reads from the environment; a run must not
#: inherit another dispatch engine, preset or cache directory.
ENV_VARS = ("REPRO_DISPATCH", "REPRO_PROFILE", "REPRO_CACHE")

#: A round's length, in seconds, on the machine the benchmark was built
#: on.  A run makes ``--seconds // NOMINAL_ROUND_S`` rounds, at least one
#: per program population of the workload: the count depends on the
#: requested length only, not on how fast the machine or the program is,
#: so two commits are measured over the same rounds.
NOMINAL_ROUND_S = {"learn": 10.5, "startup": 6.0, "deploy": 1.5}

#: Per-layer metrics a workload computes itself rather than from spans.
EXTRA_LAYER_METRICS = ("ml.svm_objective_excess", "codecache.hit_ratio",
                       "codecache.written_kb")


def pin_to_one_cpu():
    """Keep this process, all its threads included, on one CPU.

    The model server of ``deploy`` answers on a thread.  On a VM whose
    other CPU idles, waking that CPU for each RPC cost host scheduling
    time (seen as steal) of 0.1 to 1.8 s per round and swung
    ``deploy``'s wall time by a third; on one CPU the hand-off is a
    local thread switch.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("learn", "startup", "deploy"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _round(workload, index, totals, recorder=None):
    """Round *index*; with a *recorder*, traced under a root span whose
    duration is the wall time returned."""
    gc.collect()
    scope = recorder.round() if recorder is not None \
        else contextlib.nullcontext()
    cpu0 = time.process_time()
    with scope:
        wall0 = time.perf_counter()
        attempted, failed = workload.run_round(index)
        wall = time.perf_counter() - wall0
    cpu = time.process_time() - cpu0
    if recorder is not None:
        wall = recorder.spans[-1].duration
    totals[0] += attempted
    totals[1] += failed
    return wall, cpu


def run_rounds(workload, rounds, recorder=None):
    """Make *rounds* untraced rounds, or with a *recorder* an untraced
    warm-up round, a traced round and an untraced round, all of index 0
    (the first round of a run is slower, so the tracing overhead is
    taken from the later two).  Returns ``(walls, cpus, traced_walls,
    totals)``; totals is ``[attempted, failed]``.
    """
    walls, cpus, traced = [], [], []
    totals = [0, 0]
    if recorder is None:
        for index in range(rounds):
            wall, cpu = _round(workload, index, totals)
            walls.append(wall)
            cpus.append(cpu)
    else:
        _round(workload, 0, totals)
        traced.append(_round(workload, 0, totals, recorder)[0])
        walls.append(_round(workload, 0, totals)[0])
    return walls, cpus, traced, totals


def _print_rollup(name, recorder, traced):
    from layers import LAYERS
    from spans import rollup
    rounds = len(traced)
    per_layer = {k: v / rounds for k, v in rollup(recorder.spans).items()}
    wall = sum(traced) / rounds
    unattributed = per_layer.pop("unattributed", 0.0)
    print(f"layer self time per traced round, {name} "
          f"({rounds} round(s), {wall:.4f} s wall):")
    for layer in LAYERS:
        value = per_layer.get(layer, 0.0)
        print(f"  {layer:12s} {value:10.4f} s  {value / wall:6.1%}")
    print(f"  {'unattributed':12s} {unattributed:10.4f} s  "
          f"{unattributed / wall:6.1%}")
    total = sum(per_layer.values()) + unattributed
    print(f"  {'sum':12s} {total:10.4f} s  (wall {wall:.4f} s, "
          f"difference {total - wall:+.2e} s)")


def measure_workload(args, import_s, workdir):
    import workflows
    workload = workflows.WORKLOADS[args.workload](args.seed, workdir)
    recorder = None
    try:
        started = time.perf_counter()
        workload.set_up()
        setup_s = import_s + time.perf_counter() - started
        if args.trace:
            from layers import instrument
            from spans import Recorder
            recorder = Recorder()
            instrument(recorder)
        try:
            rounds = max(workload.POPULATIONS,
                         int(args.seconds // NOMINAL_ROUND_S[args.workload]))
            walls, cpus, traced, totals = run_rounds(workload, rounds,
                                                     recorder)
        finally:
            if recorder is not None:
                recorder.restore()
        totals[1] += workload.check()
    finally:
        workload.close()
    attempted, failed = totals
    print(f"workload {args.workload}, seed {args.seed}: {len(walls)} "
          f"untraced and {len(traced)} traced round(s), {attempted} "
          f"operations attempted, {failed} failed")
    if walls and not args.trace:
        print("round wall times: "
              + " ".join(f"{wall:.3f}" for wall in walls) + " s")
    for problem in workload.problems:
        print(f"check failed: {problem}")
    for name, error in sorted(workload.left_out.items()):
        print(f"left out: {name} {error}")
    for fault in workload.known_faults:
        print(f"known fault: {fault}")
    if args.trace:
        from layers import layer_metrics
        _print_rollup(args.workload, recorder, traced)
        values = layer_metrics(recorder.spans, len(traced))
        values["workloads.generate_s"] = workload.generate_s
        for name in EXTRA_LAYER_METRICS:
            values[name] = workload.layer_extras.get(name, 0.0)
        values["trace.overhead_ratio"] = (statistics.median(traced)
                                          / statistics.median(walls))
        units = _units("per_layer")
    else:
        values = {
            "setup_s": setup_s,
            "wall_s": statistics.median(walls),
            "cpu_s": statistics.median(cpus),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = _units("end_to_end")
    metrics = {}
    for name, unit in units.items():
        metrics[name] = {"value": values[name], "unit": unit}
        print(f"  {name:26s} {values[name]:14.6f} {unit}")
    return {"correct": not workload.problems, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def _units(section):
    with open(os.path.join(ROOT, "BENCHMARK.json"),
              encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec[section]}


def main(argv=None):
    args = parse_args(argv)
    for var in ENV_VARS:
        os.environ.pop(var, None)
    pin_to_one_cpu()
    started = time.perf_counter()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        import workflows  # noqa: F401  (imports the program)
    except ImportError as exc:
        print(f"perfbench: cannot import the program from "
              f"{os.path.join(ROOT, 'src')}: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - started
    os.makedirs(SCRATCH, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=SCRATCH)
    try:
        result = measure_workload(args, import_s, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(SCRATCH)
        except OSError:
            pass  # another run still uses it
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
