"""Timing spans around calls into roclab's public functions.

The tracer measures from outside the package: while recording, it replaces
each traced function at every ``roclab`` module attribute that refers to it
(``roclab.cli.dpm_fit`` as well as ``roclab.pooled_roc.dpm_fit``, or
``roclab.pooled_roc.youden_from_cdfs`` as well as
``roclab.indices.youden_from_cdfs``) with a wrapper that records a span,
and puts the originals back when recording stops.  Nothing under ``src/``
changes.  Spans stay in memory until the benchmark writes them out.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict
from dataclasses import asdict, dataclass, field

LAYERS = ("cli", "pooled_roc", "indices", "covariate_roc", "timedep_roc",
          "binary_metrics", "simulate")

# span name -> functions it times, as (module, attribute or Class.method)
TARGETS = {
    "cli.main": [("roclab.cli", "main")],
    "cli.read_cohort": [("roclab.cli", "read_cohort")],
    "pooled_roc.empirical_roc": [("roclab.pooled_roc", "empirical_roc")],
    "pooled_roc.empirical_auc": [("roclab.pooled_roc", "empirical_auc")],
    "pooled_roc.bb_roc": [("roclab.pooled_roc", "bb_roc")],
    "pooled_roc.lscv_bandwidth": [("roclab.pooled_roc", "lscv_bandwidth")],
    "pooled_roc.kernel_roc": [("roclab.pooled_roc", "kernel_roc")],
    "pooled_roc.kernel_auc": [("roclab.pooled_roc", "kernel_auc")],
    "pooled_roc.kernel_cdf": [("roclab.pooled_roc", "kernel_cdf")],
    "pooled_roc.dpm_fit": [("roclab.pooled_roc", "dpm_fit")],
    "pooled_roc.dpm_roc": [("roclab.pooled_roc", "dpm_roc")],
    "pooled_roc.summarize": [("roclab.pooled_roc", "PosteriorEnsemble.summarize"),
                             ("roclab.pooled_roc", "PosteriorEnsemble.youden_summary")],
    "indices.youden_from_cdfs": [("roclab.indices", "youden_from_cdfs")],
    "indices.youden_empirical": [("roclab.indices", "youden_empirical")],
    "covariate_roc.ols_fit": [("roclab.covariate_roc", "ols_fit")],
    "covariate_roc.faraggi_roc": [("roclab.covariate_roc", "faraggi_roc")],
    "covariate_roc.rocglm_fit": [("roclab.covariate_roc", "rocglm_fit")],
    "covariate_roc.aroc": [("roclab.covariate_roc", "aroc")],
    "covariate_roc.ddp_fit": [("roclab.covariate_roc", "ddp_fit")],
    "covariate_roc.ddp_roc": [("roclab.covariate_roc", "ddp_roc")],
    "timedep_roc.timedep_roc": [("roclab.timedep_roc", "timedep_roc")],
    "timedep_roc.timedep_auc": [("roclab.timedep_roc", "timedep_auc")],
    "timedep_roc.cumdyn_fractions": [("roclab.timedep_roc", "cumdyn_fractions")],
    "binary_metrics.classification_fractions": [
        ("roclab.binary_metrics", "classification_fractions")],
    "simulate.gen": [("roclab.simulate", "gen_binormal"),
                     ("roclab.simulate", "gen_covariate_linear"),
                     ("roclab.simulate", "gen_survival")],
}


def _sweeps(args, result):
    return args["cfg"].burn_in + args["cfg"].n_save


# span name -> (count name, count from the bound arguments and the result)
COUNTS = {
    "cli.read_cohort": ("rows", lambda args, result: result[1]["n_rows"]),
    "pooled_roc.dpm_fit": ("sweeps", _sweeps),
    "covariate_roc.ddp_fit": ("sweeps", _sweeps),
    "pooled_roc.dpm_roc": ("draws", lambda args, result: len(args["draws_d"])),
    "covariate_roc.ddp_roc": ("draws", lambda args, result: len(args["draws_d"])),
    "indices.youden_from_cdfs": ("calls", lambda args, result: 1),
    "pooled_roc.kernel_auc": ("pairs", lambda args, result:
                              len(args["diseased"]) * len(args["nondiseased"])),
    "timedep_roc.cumdyn_fractions": ("calls", lambda args, result: 1),
}

# count name -> rate name, over the self time of the same span
RATES = {"rows": "rows_per_s", "sweeps": "sweeps_per_s"}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run: str
    raised: bool = False
    counts: dict = field(default_factory=dict)


class Tracer:
    """Records spans for calls into the traced roclab functions."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._run = ""

    def _wrap(self, name: str, fn):
        count = COUNTS.get(name)
        signature = inspect.signature(fn) if count else None

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            span = Span(name, time.perf_counter(), 0.0,
                        self._stack[-1] if self._stack else None, self._run)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.raised = True
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if count:
                bound = signature.bind(*args, **kwargs).arguments
                span.counts[count[0]] = int(count[1](bound, result))
            return result

        return timed

    @contextlib.contextmanager
    def recording(self, run: str):
        """Patch the wrappers in for the ``with`` block; spans get ``run`` as id."""
        self._run = run
        undo = []
        try:
            for name, targets in TARGETS.items():
                for module_name, attr in targets:
                    owner = importlib.import_module(module_name)
                    if "." in attr:  # Class.method: patch the class once
                        cls_name, attr = attr.split(".")
                        owner = getattr(owner, cls_name)
                        original = owner.__dict__[attr]
                        undo.append((owner, attr, original))
                        setattr(owner, attr, self._wrap(name, original))
                        continue
                    original = getattr(owner, attr)
                    wrapper = self._wrap(name, original)
                    for mod_name, mod in list(sys.modules.items()):
                        if mod_name != "roclab" and not mod_name.startswith("roclab."):
                            continue
                        for alias, value in list(vars(mod).items()):
                            if value is original:
                                undo.append((mod, alias, original))
                                setattr(mod, alias, wrapper)
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    def self_times(self, run: str) -> dict[int, float]:
        """Span index -> duration minus the time its direct children cover."""
        out = {}
        for i, span in enumerate(self.spans):
            if span.run == run:
                out[i] = out.get(i, 0.0) + span.end - span.start
                if span.parent is not None:
                    out[span.parent] = out.get(span.parent, 0.0) - (span.end - span.start)
        return out

    def root_seconds(self, run: str) -> float:
        """Total duration of the spans of ``run`` that have no parent."""
        return sum(s.end - s.start for s in self.spans
                   if s.run == run and s.parent is None)

    def layer_metrics(self, runs) -> dict[str, float]:
        """Self times, counts, rates and failures summed over ``runs``."""
        seconds = defaultdict(float)
        counts = defaultdict(int)
        failed = dict.fromkeys(LAYERS, 0)
        for run in runs:
            for i, own in self.self_times(run).items():
                span = self.spans[i]
                seconds[span.name] += own
                for key, value in span.counts.items():
                    counts[f"{span.name}.{key}"] += value
                if span.raised:
                    failed[span.name.split(".")[0]] += 1
        out = {}
        for name in TARGETS:
            out[metric_name(name)] = seconds[name]
            if name in COUNTS:
                key = COUNTS[name][0]
                out[f"{name}.{key}"] = counts[f"{name}.{key}"]
                if key in RATES:
                    out[f"{name}.{RATES[key]}"] = (
                        counts[f"{name}.{key}"] / seconds[name] if seconds[name] > 0 else 0.0)
        for layer, n in failed.items():
            out[f"{layer}.failed"] = n
        return out

    def dump(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


def metric_name(span_name: str) -> str:
    # the CLI handler's span covers everything below it; its metric is
    # the self time, named so that nobody reads it as the whole call
    return "cli.main_self_s" if span_name == "cli.main" else f"{span_name}_s"
