"""Run the judgebench CLI with a timing wrapper at each module boundary.

    python3 trace_cli.py TRACE_JSON COMMAND [FLAGS...]

Each wrapper replaces a module attribute that callers look up (for example
``judgebench.cli.load_forecasts`` and ``judgebench.linreg.baseline``), so the
program itself is not modified.  A layer's time is its self time: the span of
the wrapped call minus the spans of wrapped calls made inside it.  Functions
in ``COUNTED`` are only counted, because they are called too often to time
cheaply.  A target that no longer exists, or a work counter whose result
changed shape, is listed under ``missing`` and skipped; the run goes on.
The totals are written to TRACE_JSON when the CLI returns, together with
``overhead_s``: the wrappers' own cost, estimated as the number of wrapped
calls times a per-call cost calibrated in the same process.
"""
from __future__ import annotations

import functools
import importlib
import json
import os
import statistics
import sys
from collections import Counter, defaultdict
from time import perf_counter

# (layer metric, module, function); several functions may share a metric.
TIMED = [
    ("panel.ingest", "judgebench.panel", "load_forecasts"),
    ("panel.ingest", "judgebench.panel", "load_actuals"),
    ("panel.ingest", "judgebench.panel", "load_spf"),
    ("panel.clean", "judgebench.panel", "clean_panel"),
    ("panel.participation", "judgebench.panel", "participation_share"),
    ("judgment.baseline", "judgebench.judgment", "baseline"),
    ("judgment.extract", "judgebench.judgment", "extract_judgments"),
    ("judgment.shares", "judgebench.judgment", "sign_shares"),
    ("judgment.shares", "judgebench.judgment", "negative_share_histogram"),
    ("descriptive.stats", "judgebench.descriptive", "quarter_stats"),
    ("linreg.aggregate", "judgebench.linreg", "test_battery_aggregate"),
    ("linreg.individual", "judgebench.linreg", "test_battery_individual"),
    ("accuracy.table", "judgebench.accuracy", "accuracy_table"),
    ("accuracy.beat_share", "judgebench.accuracy", "beat_baseline_share"),
    ("panelreg.battery", "judgebench.panelreg", "persistence_battery"),
    ("panelreg.dataset", "judgebench.panelreg", "build_persistence_dataset"),
    ("panelreg.fe", "judgebench.panelreg", "fe_estimate"),
    ("armodel.forecast", "judgebench.armodel", "fill_missing"),
    ("armodel.forecast", "judgebench.armodel", "recursive_ar_forecast"),
    ("syngen.simulate", "judgebench.syngen", "simulate_world"),
    ("cli.stage.describe", "judgebench.cli", "cmd_describe"),
    ("cli.stage.table2", "judgebench.cli", "cmd_table2"),
    ("cli.stage.judgment", "judgebench.cli", "cmd_judgment"),
    ("cli.stage.efficiency", "judgebench.cli", "cmd_efficiency"),
    ("cli.stage.accuracy", "judgebench.cli", "cmd_accuracy"),
    ("cli.stage.persistence", "judgebench.cli", "cmd_persistence"),
    ("cli.write", "judgebench.cli", "write_csv"),
]
COUNTED = [
    ("quarters.parse", "judgebench.quarters", "parse_quarter"),
    ("linreg.ols", "judgebench.linreg", "ols"),
]
METRICS = sorted({metric for metric, _, _ in TIMED})
CALIBRATION_CALLS = 20_000
CALIBRATION_ROUNDS = 5


def _noop(*args, **kwargs):
    return None


def _per_call_cost(wrap) -> float:
    """Median extra seconds that one call costs when wrapped by ``wrap``."""
    wrapped = wrap("trace.calibration", _noop)
    costs = []
    for _ in range(CALIBRATION_ROUNDS):
        start = perf_counter()
        for _ in range(CALIBRATION_CALLS):
            _noop()
        bare = perf_counter() - start
        start = perf_counter()
        for _ in range(CALIBRATION_CALLS):
            wrapped()
        costs.append((perf_counter() - start - bare) / CALIBRATION_CALLS)
    return statistics.median(costs)


def _lookup(module_name: str, attr: str):
    try:
        return getattr(importlib.import_module(module_name), attr, None)
    except ModuleNotFoundError:
        return None


class Tracer:
    """Self time and call count per layer metric, plus work counters."""

    def __init__(self):
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.work: Counter[str] = Counter()
        self.last: dict[str, int] = {}
        self.missing: list[str] = []
        self._child_s = [0.0]  # time spent in wrapped callees, one slot per open span

    def timed(self, metric, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._child_s.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = perf_counter() - start
                inner = self._child_s.pop()
                self._child_s[-1] += span
                self.self_s[metric] += span - inner
                self.calls[metric] += 1
            try:
                self._record_work(fn.__name__, args, result)
            except (AttributeError, TypeError, IndexError, OSError):
                # The function's result changed shape: drop the counter, keep the run.
                self.missing.append(f"work counter of {fn.__name__}")
            return result

        return wrapper

    def counted(self, metric, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[metric] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _record_work(self, name, args, result):
        if name == "load_forecasts":
            self.last["panel.rows_read"] = len(result)
        elif name == "clean_panel":
            log = result[1]
            self.last["panel.rows_dropped"] = log.dropped_count()
            for action, n in Counter(e.action.value for e in log.entries).items():
                self.last[f"panel.dropped.{action}"] = n
        elif name == "extract_judgments":
            self.work["judgment.entries"] += len(result.entries)
        elif name == "simulate_world":
            self.work["syngen.records"] += len(result.panel)
        elif name == "write_csv":
            self.work["cli.bytes_written"] += os.path.getsize(args[0])

    def install(self):
        """Replace every judgebench binding of each target with its wrapper."""
        targets = [(self.timed, *t) for t in TIMED] + [(self.counted, *t) for t in COUNTED]
        originals = [_lookup(module_name, attr) for _, _, module_name, attr in targets]
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "judgebench"]
        for (wrap, metric, module_name, attr), original in zip(targets, originals):
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            wrapper = wrap(metric, original)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, name, wrapper)

    def overhead_s(self) -> float:
        """The wrappers' own cost in this run: wrapped calls times a calibrated per-call cost."""
        probe = Tracer()  # calibration calls must not count in this tracer
        timed_calls = sum(self.calls[metric] for metric in METRICS)
        counted_calls = sum(self.calls[metric] for metric, _, _ in COUNTED)
        return timed_calls * _per_call_cost(probe.timed) + counted_calls * _per_call_cost(probe.counted)

    def to_dict(self) -> dict:
        return {
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "work": {**self.work, **self.last},
            "missing": self.missing,
            "overhead_s": self.overhead_s(),
        }


def main(argv: list[str]) -> int:
    trace_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    from judgebench import cli

    try:
        return cli.main(cli_args)
    finally:
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.to_dict(), fh, indent=1, sort_keys=True)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
