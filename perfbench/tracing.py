"""Run one benchmark job in this process with every layer boundary timed.

    python3 perfbench/tracing.py cli ARGV...   # like python -m lambdakit ARGV...
    python3 perfbench/tracing.py ingest        # like python3 perfbench/ingest.py

The layers' public functions are wrapped where ``cli``, ``classifier``
and ``verify`` (or the ingest loop) import them, and stdout is wrapped
to count writes and flushes; nothing inside lambdakit changes, so
stdout is byte-identical to an untraced run.  A span is the time inside
one wrapped call; a span nested directly in a span of the same kind
(``dp_table`` calling ``dp_count``) is folded into it.  A kind's self
time is its spans' time minus the time of the spans nested in them.

On exit one line ``MARK`` + JSON goes to stderr with, per kind, the
busy and self seconds, and the work counters.
"""

import json
import sys
import time
from collections import defaultdict

MARK = "@@perfbench-trace "

perf = time.perf_counter


class Tracer:
    def __init__(self):
        self.stack = []  # [kind, seconds spent in nested spans]
        self.busy = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = defaultdict(int)
        self.keys = defaultdict(set)

    def call(self, kind, fn, *args, **kwargs):
        stack = self.stack
        if stack and stack[-1][0] == kind:
            return fn(*args, **kwargs)
        frame = [kind, 0.0]
        stack.append(frame)
        start = perf()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = perf() - start
            stack.pop()
            self.busy[kind] += elapsed
            self.self_time[kind] += elapsed - frame[1]
            if stack:
                stack[-1][1] += elapsed

    def wrap(self, kind, fn, on_result=None):
        def wrapper(*args, **kwargs):
            outermost = not (self.stack and self.stack[-1][0] == kind)
            result = self.call(kind, fn, *args, **kwargs)
            if on_result is not None:
                on_result(fn.__name__, args, result, outermost)
            return result

        return wrapper

    def patch(self, modules, names, kind, on_result=None):
        for module in modules:
            for name in names:
                fn = getattr(module, name, None)
                if fn is not None:
                    setattr(module, name, self.wrap(kind, fn, on_result))

    def report(self):
        return {
            "busy": dict(self.busy),
            "self": dict(self.self_time),
            "counts": dict(self.counts),
            "distinct": {kind: len(keys) for kind, keys in self.keys.items()},
        }


class TimedIter:
    """Iterator whose next() calls are spans of kind ``enumerator.iter``."""

    def __init__(self, tracer, iterator):
        self.tracer = tracer
        self.iterator = iterator

    def __iter__(self):
        return self

    def __next__(self):
        item = self.tracer.call("enumerator.iter", next, self.iterator)
        self.tracer.counts["enumerator.items"] += 1
        return item


class TracedStream:
    """Stdout wrapper counting write and flush calls and bytes written."""

    def __init__(self, tracer, stream):
        self.tracer = tracer
        self.stream = stream

    def write(self, text):
        counts = self.tracer.counts
        counts["cli.write_calls"] += 1
        counts["cli.bytes_out"] += len(text.encode())
        return self.tracer.call("cli.write", self.stream.write, text)

    def flush(self):
        self.tracer.counts["cli.flush_calls"] += 1
        return self.tracer.call("cli.write", self.stream.flush)

    def __getattr__(self, name):
        return getattr(self.stream, name)


def _sweep_size(name, result):
    if name == "count_split":
        return result.plus + result.minus
    if name == "corner_pattern_counts":
        return sum(result)
    return result


def install(tracer, importers):
    """Wrap each layer's public functions as ``importers`` see them."""
    from lambdakit import profile_dp

    def kernel_done(name, args, result, outermost):
        tracer.counts["kernel.calls"] += 1
        tracer.counts["kernel.matrices"] += _sweep_size(name, result)
        tracer.keys["kernel"].add((name, args))

    def dp_done(name, args, result, outermost):
        if name == "dp_count":
            tracer.counts["profile_dp.calls"] += 1
            tracer.keys["profile_dp"].add(args)

    def verify_done(name, args, result, outermost):
        if outermost:
            tracer.counts["verify.checks"] += len(result)
            tracer.counts["verify.failed_checks"] += sum(not c.ok for c in result)

    def calls(counter):
        def done(name, args, result, outermost):
            tracer.counts[counter] += 1
        return done

    def is_lambda_done(name, args, result, outermost):
        tracer.counts["matrix.rejected"] += not result

    def iter_lambda(fn):
        return lambda *args, **kwargs: TimedIter(tracer, fn(*args, **kwargs))

    tracer.patch(importers, ["count_lambda", "count_split", "corner_pattern_counts"],
                 "kernel", kernel_done)
    tracer.patch([*importers, profile_dp], ["dp_count", "dp_table"], "profile_dp", dp_done)
    tracer.patch(importers, ["lambda2_partition_sum"], "formulas.partition_sum")
    tracer.patch(importers, ["lambda3_explicit"], "formulas.explicit")
    tracer.patch(importers, ["lambda2_anand", "lambda2_good", "lambda2_system", "lambda2_plus"],
                 "formulas.recursions")
    tracer.patch(importers, ["census_identity_check", "class_counts", "classify_plus3"],
                 "classifier")
    tracer.patch(importers, ["insertion_class_stats"], "enumerator.insertion_stats")
    tracer.patch(importers, ["run_suite"], "verify", verify_done)
    tracer.patch(importers, ["parse_matrix"], "matrix.parse", calls("matrix.parse_calls"))
    tracer.patch(importers, ["is_lambda"], "matrix.is_lambda", is_lambda_done)
    tracer.patch(importers, ["serialize_matrix"], "matrix.serialize", calls("matrix.serialize_calls"))
    for module in importers:
        if hasattr(module, "iter_lambda"):
            module.iter_lambda = iter_lambda(module.iter_lambda)


def main(argv):
    tracer = Tracer()
    mode, args = argv[0], argv[1:]
    start = perf()
    if mode == "cli":
        from lambdakit import classifier, cli, verify

        importers = [cli, classifier, verify]
        entry, entry_args = cli.main, (args,)
    else:
        import ingest

        importers = [ingest]
        entry, entry_args = ingest.main, ()
    tracer.busy["import"] = perf() - start
    install(tracer, importers)
    real_stdout = sys.stdout
    if mode == "cli":
        sys.stdout = TracedStream(tracer, real_stdout)
    try:
        status = tracer.call(mode, entry, *entry_args)
    finally:
        sys.stdout = real_stdout
        real_stdout.flush()
        sys.stderr.write(MARK + json.dumps(tracer.report(), sort_keys=True) + "\n")
        sys.stderr.flush()
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
