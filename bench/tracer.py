"""Spans and counters around uminflow's public functions, taken from outside.

Installing the tracer replaces each traced function in every uminflow module
that holds it (modules import one another's functions by value), and each
traced method on its class; uninstalling puts the originals back.  Spans are
kept in memory in flat arrays (name, start, end, parent, op id) and written
out at the end of the run.  A span's self time is its duration minus the
time its child spans cover.  Recursive calls of a traced function inside its
own span are not traced again.  The tiny hot calls (stream keys and the two
order comparisons) get counters only.
"""

from __future__ import annotations

import gzip
import time
from array import array
from collections import Counter, defaultdict
from math import factorial, log
from statistics import fmean, median

# (module, attribute or Class.method, span name)
SPANNED = (
    ("orders", "parse_event", "orders.parse_event"),
    ("orders", "support", "orders.support"),
    ("orders", "evaluate", "orders.evaluate"),
    ("measure", "mu_exact", "measure.mu_exact"),
    ("measure", "mu_weight_exact", "measure.mu_weight_exact"),
    ("measure", "adjacency_event", "measure.adjacency_event"),
    ("measure", "linear_extension_count", "measure.linear_extension_count"),
    ("sampler", "run_ml_tests", "sampler.run_ml_tests"),
    ("sampler", "MLTestFamily.level", "sampler.family_level"),
    ("sampler", "RandomOrderStream.prefix", "sampler.prefix"),
    ("fraisse", "universal_poset_stage", "fraisse.universal_poset_stage"),
    ("fraisse", "back_and_forth", "fraisse.back_and_forth"),
    ("fraisse", "rational_code", "fraisse.rational_code"),
    ("randomizer", "compute_randomizer", "randomizer.compute_randomizer"),
    ("randomizer", "verify_certificate", "randomizer.verify_certificate"),
    ("cli", "main", "cli.main"),
)
MODULES = ("orders", "measure", "fraisse", "sampler", "randomizer", "cli")


class Tracer:
    def __init__(self, um):
        self.um = um
        self._support = um.orders.support  # untraced, for work counts
        self.names: list[str] = [name for _, _, name in SPANNED]
        self._name_id = {name: i for i, name in enumerate(self.names)}
        self.span_name = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("l")
        self.span_op = array("l")
        self._stack: list[list] = []  # [span index, child seconds]
        self._active: Counter = Counter()
        self.op = -1
        self.ops = 0
        self.incl_s: defaultdict[str, float] = defaultdict(float)
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.work: Counter = Counter()  # counts derived from arguments/results
        self.work_s: defaultdict[str, float] = defaultdict(float)
        self.sizes: defaultdict[str, list] = defaultdict(list)  # (size, seconds)
        self._patches: list[tuple[object, str, object]] = []

    # -- installing

    def install(self):
        um = self.um
        for modname, attr, name in SPANNED:
            mod = getattr(um, modname)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                self._patch(cls, meth, self._span(name, getattr(cls, meth)))
            else:
                original = getattr(mod, attr)
                self._patch_everywhere(original, self._span(name, original))
        stream = um.sampler.RandomOrderStream
        self._patch(stream, "key", self._key_counter(stream.key))
        self._patch(um.fraisse.OrderPresentation, "less",
                    self._counter("fraisse.less", um.fraisse.OrderPresentation.less))
        original = um.fraisse.rational_value
        self._patch_everywhere(original, self._counter("fraisse.rational_value", original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _patch_everywhere(self, original, replacement):
        for mod in [self.um] + [getattr(self.um, m) for m in MODULES]:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, attr, replacement)

    # -- ops

    def begin_op(self, op: int):
        self.op = op
        self.ops += 1

    def end_op(self):
        self.op = -1

    # -- wrappers

    def _counter(self, name, fn):
        calls = self.calls

        def counted(*args):
            calls[name] += 1
            return fn(*args)

        return counted

    def _key_counter(self, fn):
        calls, work, work_s = self.calls, self.work, self.work_s
        clock = time.perf_counter

        def key(stream, n):
            calls["sampler.key"] += 1
            if n in stream._keys:
                return fn(stream, n)
            work["sampler.keys_derived"] += 1
            t0 = clock()
            k = fn(stream, n)
            work_s["sampler.key.derive"] += clock() - t0
            return k

        return key

    def _span(self, name, fn):
        name_id = self._name_id[name]
        note = getattr(self, "_note_" + name.replace(".", "_"), None)
        active, stack, clock = self._active, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            if active[name]:
                return fn(*args, **kwargs)
            index = len(self.span_start)
            self.span_name.append(name_id)
            self.span_parent.append(stack[-1][0] if stack else -1)
            self.span_op.append(self.op)
            self.span_end.append(0.0)
            active[name] += 1
            frame = [index, 0.0]
            stack.append(frame)
            keys_before = self.calls["sampler.key"]
            result = error = None
            start = clock()
            self.span_start.append(start)
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = exc
                raise
            finally:
                end = clock()
                self.span_end[index] = end
                stack.pop()
                active[name] -= 1
                dur = end - start
                if stack:
                    stack[-1][1] += dur
                self.calls[name] += 1
                self.incl_s[name] += dur
                self.self_s[name] += dur - frame[1]
                if note:
                    note(args, result, error, dur, keys_before)

        return traced

    # -- work counts taken at the span boundary

    def _note_orders_support(self, args, result, error, dur, keys_before):
        if result is not None:
            self.sizes["orders.support"].append((len(result), dur))

    def _note_measure_mu_exact(self, args, result, error, dur, keys_before):
        if isinstance(error, self.um.measure.CapExceededError):
            self.work["measure.cap_refusals"] += 1
        elif error is None:
            self._active["orders.support"] += 1  # keep its recursion untraced
            try:
                perms = factorial(len(self._support(args[0])))
            finally:
                self._active["orders.support"] -= 1
            self.work["measure.permutations"] += perms
            self.sizes["measure.mu_exact"].append((perms, dur))

    def _note_measure_mu_weight_exact(self, args, result, error, dur, keys_before):
        if isinstance(error, self.um.measure.CapExceededError):
            self.work["measure.cap_refusals"] += 1

    def _note_sampler_prefix(self, args, result, error, dur, keys_before):
        self.work["sampler.prefix.elements"] += args[1]
        self.sizes["sampler.prefix"].append((args[1], dur))

    def _note_fraisse_back_and_forth(self, args, result, error, dur, keys_before):
        self.sizes["fraisse.back_and_forth"].append((args[2], dur))

    def _note_randomizer_compute_randomizer(self, args, result, error, dur, keys_before):
        scanned = self.calls["sampler.key"] - keys_before
        self.work["randomizer.keys_scanned"] += scanned
        if isinstance(error, self.um.fraisse.SearchBudgetError):
            self.work["randomizer.budget_failures"] += 1
        elif error is None:
            self.work["randomizer.pairs_placed"] += len(result.sigma.pairs)

    def _note_randomizer_verify_certificate(self, args, result, error, dur, keys_before):
        m = len(args[0].sigma.pairs)
        self.work["randomizer.verify.pairs"] += m * (m - 1) // 2

    # -- results

    def metrics(self) -> dict[str, tuple[float, str]]:
        ops = max(self.ops, 1)
        w, c = self.work, self.calls

        def incl(name):
            return self.incl_s[name] / ops

        def per_op(count):
            return count / ops

        return {
            "cli.main.self_s": (self.self_s["cli.main"] / ops, "s/op"),
            "orders.parse_event.s": (incl("orders.parse_event"), "s/op"),
            "orders.support.s": (incl("orders.support"), "s/op"),
            "orders.support.calls": (per_op(c["orders.support"]), "count/op"),
            "orders.support.growth": (growth(self.sizes["orders.support"]), "exponent"),
            "orders.evaluate.s": (incl("orders.evaluate"), "s/op"),
            "orders.evaluate.calls": (per_op(c["orders.evaluate"]), "count/op"),
            "measure.mu_exact.s": (incl("measure.mu_exact"), "s/op"),
            "measure.permutations": (per_op(w["measure.permutations"]), "count/op"),
            "measure.mu_exact.s_per_perm": (
                ratio(self.incl_s["measure.mu_exact"], w["measure.permutations"]), "s"),
            "measure.mu_exact.growth": (growth(self.sizes["measure.mu_exact"]), "exponent"),
            "measure.mu_weight_exact.s": (incl("measure.mu_weight_exact"), "s/op"),
            "measure.cap_refusals": (per_op(w["measure.cap_refusals"]), "count/op"),
            "measure.adjacency_event.s": (incl("measure.adjacency_event"), "s/op"),
            "measure.linear_extension_count.s": (
                incl("measure.linear_extension_count"), "s/op"),
            "sampler.run_ml_tests.self_s": (
                self.self_s["sampler.run_ml_tests"] / ops, "s/op"),
            "sampler.family_level.s": (incl("sampler.family_level"), "s/op"),
            "sampler.prefix.s": (incl("sampler.prefix"), "s/op"),
            "sampler.prefix.elements": (per_op(w["sampler.prefix.elements"]), "count/op"),
            "sampler.prefix.growth": (growth(self.sizes["sampler.prefix"]), "exponent"),
            "sampler.key.calls": (per_op(c["sampler.key"]), "count/op"),
            "sampler.keys_derived": (per_op(w["sampler.keys_derived"]), "count/op"),
            "sampler.key.hit_ratio": (
                ratio(c["sampler.key"], w["sampler.keys_derived"]), "ratio"),
            "sampler.key.s_per_derived": (
                ratio(self.work_s["sampler.key.derive"], w["sampler.keys_derived"]), "s"),
            "fraisse.universal_poset_stage.s": (
                incl("fraisse.universal_poset_stage"), "s/op"),
            "fraisse.back_and_forth.s": (incl("fraisse.back_and_forth"), "s/op"),
            "fraisse.back_and_forth.growth": (
                growth(self.sizes["fraisse.back_and_forth"]), "exponent"),
            "fraisse.less.calls": (per_op(c["fraisse.less"]), "count/op"),
            "fraisse.rational_value.calls": (per_op(c["fraisse.rational_value"]), "count/op"),
            "fraisse.rational_code.s": (incl("fraisse.rational_code"), "s/op"),
            "randomizer.compute_randomizer.s": (
                incl("randomizer.compute_randomizer"), "s/op"),
            "randomizer.keys_scanned": (per_op(w["randomizer.keys_scanned"]), "count/op"),
            "randomizer.scan_yield": (
                ratio(w["randomizer.pairs_placed"], w["randomizer.keys_scanned"]), "ratio"),
            "randomizer.keys_per_pair": (
                ratio(w["randomizer.keys_scanned"], w["randomizer.pairs_placed"]), "ratio"),
            "randomizer.verify_certificate.s": (
                incl("randomizer.verify_certificate"), "s/op"),
            "randomizer.verify.pairs": (per_op(w["randomizer.verify.pairs"]), "count/op"),
            "randomizer.verify.s_per_pair": (
                ratio(self.incl_s["randomizer.verify_certificate"],
                      w["randomizer.verify.pairs"]), "s"),
            "randomizer.budget_failures": (
                per_op(w["randomizer.budget_failures"]), "count/op"),
        }

    def write_spans(self, path):
        """One tab-separated line per span: name, start, end, parent, op."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("name\tstart\tend\tparent\top\n")
            for i in range(len(self.span_start)):
                fh.write(f"{self.names[self.span_name[i]]}\t{self.span_start[i]:.9f}\t"
                         f"{self.span_end[i]:.9f}\t{self.span_parent[i]}\t"
                         f"{self.span_op[i]}\n")


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def growth(samples: list[tuple[float, float]]) -> float:
    """Least-squares slope of log(median seconds) on log(size), over the
    distinct sizes within a factor 16 of the largest, where fixed per-call
    costs no longer hide the growth; 0 when fewer than two sizes qualify."""
    by_size: defaultdict[float, list] = defaultdict(list)
    top = max((size for size, _ in samples), default=0)
    for size, seconds in samples:
        if size * 16 >= top and seconds > 0:
            by_size[size].append(seconds)
    if len(by_size) < 2:
        return 0.0
    xs, ys = [], []
    for size, values in by_size.items():
        xs.append(log(size))
        ys.append(log(median(values)))
    mx, my = fmean(xs), fmean(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx
