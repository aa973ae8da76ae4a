"""Which entry points of which ``repro`` module make up each layer.

:func:`instrument` wraps them with a :class:`~spans.Recorder`;
:func:`layer_metrics` turns the recorded spans of the traced rounds into
the per-layer metrics listed in ``BENCHMARK.json``, each per round.
Layers a workload does not use report zero.
"""

import importlib
import statistics

#: Layer names, as in the rollup, in reporting order.
LAYERS = ("workloads", "jvm", "features", "jit", "collect", "ml",
          "service", "codecache", "experiments")


def _guest_instructions(vm):
    stats = vm.stats
    return stats["interp_steps"] + stats["retired_instructions"]


def _count_instructions(span, _result, args, before):
    span.data = _guest_instructions(args[0]) - before


def _code_size(span, compiled, _args, _token):
    span.data = compiled.native.size() if compiled is not None else 0


def _pass_log(span, result, _args, _token):
    log = result[2]
    span.data = (sum(1 for _entry, changed in log if changed), len(log))


def _epochs(span, _result, args, _token):
    span.data = args[0].epochs_run


def _records(span, result, _args, _token):
    span.data = len(result)


def _archive_bytes(span, size, _args, _token):
    span.data = size


def instrument(recorder):
    """Wrap every layer's public entry points; undo with
    ``recorder.restore()``."""
    from repro.codecache.store import CodeCache
    from repro.collect import archive
    from repro.collect.session import CollectionSession
    from repro.experiments import evaluation
    from repro.jit import compiler
    from repro.jit.codegen.native import NativeCode
    from repro.jit.opt.base import PassManager
    from repro.jvm.vm import VirtualMachine
    from repro.ml import pipeline
    from repro.ml.dataset import Scaling
    from repro.ml.model import LevelModel, ModelSet
    from repro.ml.svm.linear import LinearSVC
    from repro.service.client import ModelClient

    measure = importlib.import_module("repro.experiments.measure")
    wrap = recorder.wrap
    wrap(VirtualMachine, "call", "jvm.call", "jvm",
         before=lambda args: _guest_instructions(args[0]),
         after=_count_instructions)
    wrap(compiler, "extract_features", "features.extract", "features")
    wrap(compiler.JitCompiler, "compile", "jit.compile", "jit",
         after=_code_size)
    wrap(compiler.JitCompiler, "choose_modifier", "jit.choose_modifier",
         "jit")
    wrap(compiler, "generate_il", "jit.ilgen", "jit")
    wrap(PassManager, "optimize", "jit.optimize", "jit", after=_pass_log)
    wrap(compiler, "lower_method", "jit.codegen", "jit")
    wrap(NativeCode, "superop", "jit.superop", "jit")
    wrap(CollectionSession, "run", "collect.session", "collect",
         after=_records)
    wrap(archive, "write_archive", "collect.archive_write", "collect",
         after=_archive_bytes)
    wrap(archive, "read_archive", "collect.archive_read", "collect")
    wrap(pipeline, "leave_one_out_models", "ml.leave_one_out", "ml")
    wrap(pipeline.TrainingPipeline, "train", "ml.train", "ml")
    wrap(pipeline, "rank_records", "ml.rank", "ml")
    wrap(Scaling, "fit", "ml.scale", "ml")
    wrap(Scaling, "transform", "ml.scale", "ml")
    wrap(LinearSVC, "fit", "ml.svm_fit", "ml", after=_epochs)
    wrap(LevelModel, "predict_modifier", "ml.predict", "ml")
    wrap(ModelSet, "load", "ml.model_load", "ml")
    wrap(ModelClient, "predict", "service.rpc", "service")
    wrap(ModelClient, "model_digest", "service.rpc_digest", "service")
    wrap(CodeCache, "load", "codecache.load", "codecache")
    wrap(CodeCache, "store", "codecache.store", "codecache")
    wrap(evaluation, "evaluate_suite", "experiments.evaluate_suite",
         "experiments")
    wrap(evaluation, "measure", "experiments.measure", "experiments")
    wrap(measure, "run_once", "experiments.run_once", "experiments")


def _median(values):
    return statistics.median(values) if values else 0.0


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans, rounds):
    """Per-layer metrics per traced round from *spans*.

    Times are sums over every thread (the model server's predictions
    included); percentiles are over single calls.
    """
    by_name = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)

    def spans_of(*names):
        return [s for n in names for s in by_name.get(n, ())]

    def total(*names):
        return sum(s.duration for s in spans_of(*names)) / rounds

    def self_total(*names):
        return sum(s.self_s for s in spans_of(*names)) / rounds

    def count(*names):
        return len(spans_of(*names)) / rounds

    def data_sum(name, index=None):
        values = [s.data for s in by_name.get(name, ())
                  if s.data is not None]
        if index is not None:
            values = [v[index] for v in values]
        return sum(values) / rounds

    compiles = count("jit.compile")
    instructions = data_sum("jvm.call")
    exec_s = self_total("jvm.call")
    return {
        "jvm.exec_s": exec_s,
        "jvm.ns_per_instr": _ratio(exec_s * 1e9, instructions),
        "jvm.retired_minstr": instructions / 1e6,
        "features.extract_s": total("features.extract"),
        "jit.compiles": compiles,
        "jit.compile_s": total("jit.compile"),
        "jit.compile_ms_p50": 1e3 * _median(
            [s.duration for s in spans_of("jit.compile")]),
        "jit.ilgen_s": total("jit.ilgen"),
        "jit.optimize_s": total("jit.optimize"),
        "jit.codegen_s": total("jit.codegen"),
        "jit.superop_s": total("jit.superop"),
        "jit.ilgen_per_compile": _ratio(count("jit.ilgen"), compiles),
        "jit.pass_changed_ratio": _ratio(
            data_sum("jit.optimize", 0), data_sum("jit.optimize", 1)),
        "jit.code_kinstr": data_sum("jit.compile") / 1e3,
        "ml.rank_s": total("ml.rank"),
        "ml.scale_s": total("ml.scale"),
        "ml.svm_fit_s": total("ml.svm_fit"),
        "ml.svm_epochs": data_sum("ml.svm_fit"),
        "ml.predict_us_p50": 1e6 * _median(
            [s.duration for s in spans_of("ml.predict")]),
        "ml.model_load_s": total("ml.model_load"),
        "collect.session_s": self_total("collect.session"),
        "collect.records": data_sum("collect.session"),
        "collect.archive_write_s": total("collect.archive_write"),
        "collect.archive_read_s": total("collect.archive_read"),
        "collect.archive_kb": data_sum("collect.archive_write") / 1024,
        "service.rpcs": count("service.rpc", "service.rpc_digest"),
        "service.rpc_us_p50": 1e6 * _median(
            [s.duration for s in spans_of("service.rpc")]),
        "service.rpc_wait_s": total("service.rpc", "service.rpc_digest"),
        "codecache.load_ms_p50": 1e3 * _median(
            [s.duration for s in spans_of("codecache.load")]),
        "codecache.store_ms_p50": 1e3 * _median(
            [s.duration for s in spans_of("codecache.store")]),
        "experiments.self_s": self_total(
            "experiments.run_once", "experiments.measure",
            "experiments.evaluate_suite"),
    }
