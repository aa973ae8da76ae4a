"""The three workloads: the paper's own workflows, driven through the
public API of ``repro``.

Each workload has three phases:

* ``set_up()`` -- program generation and, for the workloads that need
  trained models, filling a fresh evaluation cache the way
  ``repro figures`` does on first use.  The runner times it.
* ``run_round(index)`` -- one whole round of the workflow; the runner
  times it and repeats it.  Every round attempts the same kinds of
  operations; *index* counts the rounds of a run (``learn`` picks its
  program population by it).
* ``check()`` -- output checks, after the timed rounds.

Operations (what ``attempted``/``failed`` count): collection sessions
and leave-one-out folds for ``learn``; JVM invocations for
``startup``; VM runs and model-server RPCs for ``deploy``.  An
operation fails when it raises, when its collection session crashes, or
when one of its output checks fails.

A program the generator cannot build for a seed, or whose guest code
raises when the interpreter alone runs it as often as the workload will
(some seeds hit a guest ``Math.sin``/``cos`` of infinity, which the VM
does not handle), is left out of that seed's workload at set-up and
named in the output; the other programs run as usual.  Which programs
are left out depends on the seed only, so every round of every run of a
seed attempts the same operations.
"""

import importlib
import os
import sys
import time
import traceback

from repro.codecache import CodeCache, CodeCacheConfig
from repro.collect import archive
from repro.collect.session import CollectionSession
from repro.errors import ReproError
from repro.experiments import evaluation
from repro.experiments.context import EvaluationContext
from repro.ml import pipeline
from repro.ml.model import ModelSet
from repro.ml.svm.linear import LinearSVC
from repro.service.client import connected_pair
from repro.service.strategy import ServiceStrategy
from repro.workloads import (DACAPO_BENCHMARKS, SPECJVM_BENCHMARKS,
                             SPECJVM_TRAINING, dacapo_program,
                             specjvm_program)

import reference

# The package re-exports the function ``measure`` under the module's name.
measure = importlib.import_module("repro.experiments.measure")

#: Every workload runs at the repository's smallest evaluation preset.
PRESET = "tiny"
#: JVM invocations per (program, model) in a ``startup`` round.
#: ``repro figures`` at the tiny preset makes 2; one keeps a round short
#: enough to repeat within a run.
REPLICATIONS = 1
#: Internal iterations per JVM invocation (paper section 8.1).
STARTUP_ITERATIONS = 1
#: The model set the ``deploy`` server answers with.  DaCapo programs
#: are outside every fold's training data, so any fold applies.
DEPLOY_MODEL = "H1"
SUITES = {"specjvm": (SPECJVM_BENCHMARKS, specjvm_program),
          "dacapo": (DACAPO_BENCHMARKS, dacapo_program)}
#: Round ``r`` of a workload with program populations builds its
#: programs with master seed ``seed + POPULATION_STRIDE * (r mod
#: populations)``.
POPULATION_STRIDE = 1000
#: Seconds to wait for the model-server thread to finish after BYE.
SERVER_JOIN_S = 10.0


def _report(problems, what, exc):
    problems.append(f"{what}: {type(exc).__name__}: {exc}")
    traceback.print_exc(file=sys.stderr)


class Workload:
    """Shared set-up state: seed, scratch directory, generation time."""

    name = ""
    #: Program populations a run covers, one per round in turn.
    POPULATIONS = 1

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        self.generate_s = 0.0
        #: Failed output checks: they make the run incorrect.
        self.problems = []
        #: Faults of the program the run observed outside its operations
        #: (printed; they neither fail an operation nor the run).
        self.known_faults = []
        #: Programs left out of this seed's workload: name -> error.
        self.left_out = {}
        #: Interpreter-only results, filled while screening at set-up.
        self.interp = reference.InterpreterReference()
        self._dirs = 0
        self._patches = []
        #: Per-round numbers the traced mode reports besides spans.
        self.layer_extras = {}

    def patch(self, owner, attr, make):
        """Replace ``owner.attr`` by ``make(original)`` to capture
        outputs for :meth:`check`; :meth:`close` restores it."""
        original = getattr(owner, attr)
        setattr(owner, attr, make(original))
        self._patches.append((owner, attr, original))

    def close(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def fresh_dir(self, kind):
        self._dirs += 1
        path = os.path.join(self.workdir, f"{kind}-{self._dirs}")
        os.makedirs(path)
        return path

    def generate(self, suite, names=None, master_seed=None,
                 iterations=None):
        """The suite's programs for *master_seed* (default: the run's
        seed), minus any the generator cannot build or whose first
        ``iterations(name)`` interpreter-only calls raise (named in
        :attr:`left_out`).  Only generation counts in
        :attr:`generate_s`."""
        profiles, make = SUITES[suite]
        if master_seed is None:
            master_seed = self.seed
        programs = []
        for name in names or profiles:
            what = f"{name} (master seed {master_seed})"
            started = time.perf_counter()
            try:
                program = make(name, master_seed=master_seed)
            except (ReproError, ValueError) as exc:
                self.left_out[what] = ("could not be generated: "
                                       f"{type(exc).__name__}: {exc}")
                continue
            finally:
                self.generate_s += time.perf_counter() - started
            calls = iterations(name) if iterations else 1
            try:
                self.interp.run(program, calls)
            except Exception as exc:  # the guest fault, named in output
                self.left_out[what] = (
                    f"raises within {calls} interpreter-only call(s): "
                    f"{type(exc).__name__}: {exc}")
                continue
            programs.append(program)
        return programs

    def collect_iterations(self):
        """Most entry calls a collection session at the preset makes."""
        return EvaluationContext(
            preset=PRESET, master_seed=self.seed
        ).collection_config().max_iterations

    def fill_evaluation_cache(self, training):
        """Collect, archive and train into a fresh evaluation cache, as
        ``EvaluationContext.model_sets()`` does on first use, over the
        training programs that could be generated."""
        self.cache_dir = self.fresh_dir("evalcache")
        ctx = EvaluationContext(preset=PRESET, master_seed=self.seed,
                                cache_dir=self.cache_dir)
        config = ctx.collection_config()
        os.makedirs(os.path.join(self.cache_dir, "archives"))
        record_sets = {}
        for program in training:
            session = CollectionSession(program, config,
                                        master_seed=self.seed)
            records = session.run()
            if session.crashed:
                continue
            archive.write_archive(os.path.join(
                self.cache_dir, "archives", f"{program.name}.trca"), records)
            record_sets[program.name] = records
        models = pipeline.leave_one_out_models(record_sets)
        for name, model_set in models.items():
            model_set.save(os.path.join(self.cache_dir, "models", name))

    def load_model_sets(self):
        """The leave-one-out model sets, loaded from the cache."""
        models_dir = os.path.join(self.cache_dir, "models")
        return {name: ModelSet.load(os.path.join(models_dir, name))
                for name in sorted(os.listdir(models_dir))}


class Learn(Workload):
    """Offline phase: collection sessions on the five training
    programs, archive write/read, then the five leave-one-out model
    sets trained from the read-back archives.

    A round costs about 12 s and varies by about 10% with the programs
    and the collection seed, so a run covers two program populations:
    round ``r`` runs population ``r % POPULATIONS``, built and collected
    with master seed ``seed + POPULATION_STRIDE * (r % POPULATIONS)``.
    """

    name = "learn"
    POPULATIONS = 2

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self._round_trips = []     # (program name, written, read back)
        self._model_rounds = []    # (population, {name: ModelSet})
        self._fits = None          # captured fits of the first round
        self._capture = None
        self.patch(LinearSVC, "fit", self._capturing_fit)

    def _capturing_fit(self, original):
        def fit(svm, X, y):
            out = original(svm, X, y)
            if self._capture is not None:
                self._capture.append((X, y, svm))
            return out
        return fit

    def set_up(self):
        self.generate_s = 0.0
        self.populations = []
        calls = self.collect_iterations()
        for r in range(self.POPULATIONS):
            master_seed = self.seed + POPULATION_STRIDE * r
            self.populations.append((master_seed, self.generate(
                "specjvm", SPECJVM_TRAINING, master_seed,
                lambda _name: calls)))
        self.config = EvaluationContext(
            preset=PRESET, master_seed=self.seed).collection_config()

    def run_round(self, index):
        attempted = failed = 0
        master_seed, programs = self.populations[
            index % self.POPULATIONS]
        round_dir = self.fresh_dir("archives")
        record_sets = {}
        for program in programs:
            attempted += 1
            session = CollectionSession(program, self.config,
                                        master_seed=master_seed)
            try:
                records = session.run()
                if session.crashed:
                    raise RuntimeError("collection session crashed")
                path = os.path.join(round_dir, f"{program.name}.trca")
                archive.write_archive(path, records)
                back = archive.read_archive(path)
            except Exception as exc:  # counted, reported, run goes on
                _report(self.problems, f"session {program.name}", exc)
                failed += 1
                continue
            self._round_trips.append((program.name, records, back))
            record_sets[program.name] = back
        folds = len(programs)
        attempted += folds
        if self._fits is None:
            self._capture = []
        try:
            models = pipeline.leave_one_out_models(record_sets)
        except Exception as exc:  # every fold of the round fails
            _report(self.problems, "leave-one-out training", exc)
            models = {}
        if self._fits is None:
            self._fits, self._capture = self._capture, None
        failed += folds - len(models)
        self._model_rounds.append(({p.name for p in programs}, models))
        return attempted, failed

    def check(self):
        failed = 0
        for name, written, back in self._round_trips:
            problems = reference.archive_mismatches(written, back)
            if problems:
                failed += 1
                self.problems.append(
                    f"archive {name}: " + "; ".join(problems[:3]))
        self._round_trips = []
        for names, models in self._model_rounds:
            excluded = [ms.excluded for ms in models.values()]
            for fold, ms in sorted(models.items()):
                expected = sorted(names - {ms.excluded})
                if ms.excluded in names \
                        and excluded.count(ms.excluded) == 1 \
                        and sorted(ms.training_benchmarks) == expected:
                    continue
                failed += 1
                self.problems.append(
                    f"fold {fold} excludes {ms.excluded!r}, trained on "
                    f"{list(ms.training_benchmarks)}")
        # The first round's fits are checked (about 1 s for 15).  A bad
        # fit fails its fold; which fold a fit belongs to is not
        # recorded, so count at most one per fold.
        bad = [p for p in map(reference.same_budget_problem,
                              self._fits or ()) if p]
        failed += min(len(bad), len(SPECJVM_TRAINING))
        self.problems.extend(bad)
        self._fits = []
        self._model_rounds = []
        excess, note = reference.optimality_gap()
        self.layer_extras["ml.svm_objective_excess"] = excess
        if excess > reference.OPTIMUM_TOLERANCE:
            self.known_faults.append(note)
        return failed


class Startup(Workload):
    """Figures 6-9: every SPEC (leave-one-out) and DaCapo program under
    the baseline and its applicable learned models, one internal
    iteration per JVM invocation.

    The models come from the first population's training programs.  A
    round's cost varies by about 15% with the programs of a seed, so a
    run covers three program populations, round ``r`` population
    ``r % POPULATIONS``; the leave-one-out assignment goes by program
    name in every population, as ``evaluate_suite`` makes it.
    """

    name = "startup"
    POPULATIONS = 3
    suites = (("specjvm", True), ("dacapo", False))
    iterations = STARTUP_ITERATIONS

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self._runs = []            # (program, iterations, result)
        self._results = []         # per round: (model sets, results)
        self.patch(measure, "run_once", self._capturing_run_once)

    def _capturing_run_once(self, original):
        def run_once(program, *args, **kwargs):
            result = original(program, *args, **kwargs)
            self._runs.append((program, kwargs.get("iterations", 1),
                               result.result_value))
            return result
        return run_once

    def set_up(self):
        self.generate_s = 0.0
        collect = self.collect_iterations()
        self.populations = []
        for r in range(self.POPULATIONS):
            def calls(name, trained=(r == 0)):
                if trained and name in SPECJVM_TRAINING:
                    return max(collect, self.iterations)
                return self.iterations

            master_seed = self.seed + POPULATION_STRIDE * r
            self.populations.append((master_seed, {
                suite: self.generate(suite, master_seed=master_seed,
                                     iterations=calls)
                for suite, _loo in self.suites}))
        self.training = [p for p in self.populations[0][1]["specjvm"]
                         if p.name in SPECJVM_TRAINING]
        self.fill_evaluation_cache(self.training)

    def expected_invocations(self, programs, honor_loo, models):
        training = {p.name for p in self.training}
        total = 0
        for program in programs:
            held_out = honor_loo and program.name in training
            total += 1 + (1 if held_out else models)
        return total * REPLICATIONS

    def run_round(self, index):
        attempted = failed = 0
        master_seed, programs = self.populations[
            index % self.POPULATIONS]
        model_sets = self.load_model_sets()
        results = {}
        for suite, honor_loo in self.suites:
            expected = self.expected_invocations(
                programs[suite], honor_loo, len(model_sets))
            attempted += expected
            before = len(self._runs)
            try:
                results[suite] = evaluation.evaluate_suite(
                    programs[suite], model_sets,
                    iterations=self.iterations,
                    replications=REPLICATIONS, master_seed=master_seed,
                    honor_leave_one_out=honor_loo)
            except Exception as exc:  # the suite's remaining runs fail
                _report(self.problems, f"{suite} suite", exc)
            failed += expected - (len(self._runs) - before)
        self._results.append((model_sets, results))
        return attempted, failed

    def check(self):
        failed = 0
        for program, iterations, value in self._runs:
            expected = self.interp.result(program, iterations)
            if value != expected:
                failed += 1
                self.problems.append(
                    f"{program.name}: JIT result {value!r} != interpreter "
                    f"{expected!r}")
        self._runs.clear()
        training = {p.name for p in self.training}
        for model_sets, results in self._results:
            for suite, honor_loo in self.suites:
                for name, res in results.get(suite, {}).items():
                    models = res.models()
                    if honor_loo and name in training:
                        expected = [m for m, ms in sorted(model_sets.items())
                                    if name not in ms.training_benchmarks]
                        ok = len(expected) == 1 and models == expected
                    else:
                        expected = sorted(model_sets)
                        ok = models == expected
                    if not ok:
                        failed += len(models)
                        self.problems.append(
                            f"{name} evaluated under {models}, "
                            f"expected {expected}")
        self._results.clear()
        return failed


class _RecordingStrategy(ServiceStrategy):
    """Service consultation that keeps what it asked and was told."""

    def __init__(self, client):
        super().__init__(client)
        self.calls = []
        self.digest = None

    def choose_modifier(self, method, level, features):
        modifier = super().choose_modifier(method, level, features)
        self.calls.append((int(level), features, modifier))
        return modifier

    def model_digest(self):
        self.digest = super().model_digest()
        return self.digest

    def rpcs(self):
        return len(self.calls) + (self.digest is not None)


class Deploy(Workload):
    """Paper section 7 next to a shared code cache: fresh VMs on the
    DaCapo programs consult one model server over OS pipes, first cold
    (compile and store) then warm (probe and load) against one
    code-cache directory per round."""

    name = "deploy"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self._rounds = []   # per round: (model set, cache dir, phases)

    def set_up(self):
        self.generate_s = 0.0
        self.programs = self.generate("dacapo")
        collect = self.collect_iterations()
        self.fill_evaluation_cache(self.generate(
            "specjvm", SPECJVM_TRAINING, iterations=lambda _name: collect))

    def _run_phase(self, phase, client, cache_dir, outcomes):
        attempted = failed = 0
        for program in self.programs:
            strategy = _RecordingStrategy(client)
            cache = CodeCache(CodeCacheConfig(enabled=True,
                                              directory=cache_dir))
            try:
                run = measure.run_once(program, strategy=strategy,
                                       code_cache=cache)
            except Exception as exc:  # counted, reported, run goes on
                _report(self.problems, f"{phase} {program.name}", exc)
                run = None
                failed += 1
            attempted += 1 + strategy.rpcs()
            outcomes.append((program, strategy, run))
        return attempted, failed

    def run_round(self, _index):
        model_set = self.load_model_sets()[DEPLOY_MODEL]
        cache_dir = self.fresh_dir("codecache")
        client, server, thread = connected_pair(model_set)
        phases = {"cold": [], "warm": []}
        attempted = failed = 0
        try:
            for phase, outcomes in phases.items():
                a, f = self._run_phase(phase, client, cache_dir, outcomes)
                attempted += a
                failed += f
            client.shutdown()
        finally:
            client.close()
            thread.join(SERVER_JOIN_S)
            for fd in (server.read_fd, server.write_fd):
                os.close(fd)
        if thread.is_alive():
            raise RuntimeError("model server thread did not stop")
        self._rounds.append((model_set, cache_dir, phases))
        return attempted, failed

    def _cache_extras(self, cache_dir, phases):
        """Warm-phase hit ratio and the bytes a round left on disk."""
        warm = [r.cache_stats for _p, _s, r in phases["warm"] if r]
        probes = sum(s["hits"] + s["misses"] for s in warm)
        written = sum(e.size for e in CodeCache(cache_dir).entries())
        self.layer_extras = {
            "codecache.hit_ratio": (sum(s["hits"] for s in warm) / probes
                                    if probes else 0.0),
            "codecache.written_kb": written / 1024,
        }

    def check(self):
        failed = 0
        self._cache_extras(*self._rounds[-1][1:])
        for model_set, _cache_dir, phases in self._rounds:
            digest = model_set.digest()
            cold = {p.name: r for p, _s, r in phases["cold"]}
            for phase, outcomes in phases.items():
                for program, strategy, run in outcomes:
                    if run is None:
                        continue
                    bad_rpcs = self._check_rpcs(model_set, digest,
                                                program, strategy)
                    bad_run = self._check_run(phase, program, run,
                                              cold.get(program.name))
                    failed += bad_rpcs + bad_run
        self._rounds.clear()
        return failed

    def _check_rpcs(self, model_set, digest, program, strategy):
        bad = 0
        if strategy.digest is not None and strategy.digest != digest:
            bad += 1
            self.problems.append(f"{program.name}: served digest "
                                 f"{strategy.digest} != {digest}")
        for level, features, modifier in strategy.calls:
            local = model_set.predict_modifier(level, features)
            served = None if modifier is None else modifier.bits
            expected = None if local is None else local.bits
            if served != expected:
                bad += 1
                self.problems.append(
                    f"{program.name}: served modifier {served} != "
                    f"in-process {expected} at level {level}")
        return bad

    def _check_run(self, phase, program, run, cold):
        problems = []
        expected = self.interp.result(program, 1)
        if run.result_value != expected:
            problems.append(f"result {run.result_value!r} != interpreter "
                            f"{expected!r}")
        if phase == "warm":
            if run.cache_stats["hits"] <= 0:
                problems.append("warm run had no cache hits")
            if cold is not None \
                    and run.compile_cycles >= cold.compile_cycles:
                problems.append(
                    f"warm compile cycles {run.compile_cycles} not below "
                    f"cold {cold.compile_cycles}")
        for problem in problems:
            self.problems.append(f"{phase} {program.name}: {problem}")
        return bool(problems)


WORKLOADS = {w.name: w for w in (Learn, Startup, Deploy)}
