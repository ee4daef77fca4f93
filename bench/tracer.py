"""Spans around the package's public functions, from outside the package.

A Tracer replaces each target function with a wrapper in every module
namespace that binds it (the package itself and each module that imported
it with ``from .x import f``), so calls between modules are caught as well
as calls from the benchmark.  Each call becomes one span: name, start, end,
parent span and task id.  Spans stay in memory until the pass ends; then
``summarize`` turns them into the per-layer metrics listed in
``layers.json`` and ``write`` saves them as JSON lines.
"""

import json
import time
from collections import defaultdict

# (defining module, function name).  The span name is "<module>.<name>".
TARGETS = (
    ("search", "run"),
    ("search", "candidate_rows"),
    ("matrices", "verify_mh"),
    ("matrices", "kronecker"),
    ("matrices", "core_to_design"),
    ("matrices", "format_matrix_text"),
    ("matrices", "parse_matrix_text"),
    ("constructions", "plan"),
    ("constructions", "materialize"),
    ("constructions", "paley_hadamard"),
    ("existence", "decide"),
    ("numtheory", "is_prime"),
    ("numtheory", "is_prime_power"),
    ("numtheory", "condition1_verify"),
    ("numtheory", "condition1_search"),
    ("cli", "main"),
)

MODULES = ("matrices", "numtheory", "constructions", "existence", "search", "cli")
LAYERS = MODULES + ("bench",)
TASK_SPAN = "bench.task"
_BIG = 1 << 64


# What a span records besides its times, computed from the call's
# arguments or result after the end time is taken.
def _run_extra(args, result, raised):
    return None if raised else (result.candidate_row_count, result.nodes_visited)


def _pairs_extra(args, result, raised):
    n = args[0].n
    return n * (n - 1) // 2


_EXTRA = {
    "search.run": _run_extra,
    "matrices.verify_mh": _pairs_extra,
    "matrices.format_matrix_text": lambda a, r, e: 0 if e else len(r),
    "matrices.parse_matrix_text": lambda a, r, e: len(a[0]),
    "constructions.materialize": lambda a, r, e: 0 if e else r.n * r.n,
    "numtheory.is_prime": lambda a, r, e: a[0] >= _BIG,
    "numtheory.condition1_verify": lambda a, r, e: not e,
}


class Tracer:
    """Span recorder for one single-threaded pass."""

    def __init__(self):
        # each span: [name, start_ns, end_ns, parent index, task id, extra]
        self.spans = []
        self._stack = []
        self.task = -1
        self.task_ns = []  # duration of each task span

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        extra_of = _EXTRA.get(name)
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            rec = [name, 0, 0, stack[-1] if stack else -1, self.task, None]
            stack.append(len(spans))
            spans.append(rec)
            result = None
            raised = True
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
                raised = False
                return result
            finally:
                rec[2] = clock()
                stack.pop()
                if extra_of is not None:
                    rec[5] = extra_of(args, result, raised)

        return wrapper

    def install(self, package):
        """Wrap every target in every namespace of ``package`` that binds it."""
        namespaces = [package] + [getattr(package, m) for m in MODULES]
        for module, attr in TARGETS:
            original = getattr(getattr(package, module), attr)
            wrapper = self._wrap("%s.%s" % (module, attr), original)
            bound = 0
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, key, wrapper)
                        bound += 1
            if not bound:
                raise RuntimeError("%s.%s is bound nowhere" % (module, attr))

    def task_span(self, task_id, fn):
        """Run fn() as the root span of one task and return its result."""
        self.task = task_id
        rec = [TASK_SPAN, 0, 0, -1, task_id, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter_ns()
        try:
            return fn()
        finally:
            rec[2] = time.perf_counter_ns()
            self._stack.pop()
            self.task_ns.append(rec[2] - rec[1])

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, t0, t1, parent, task, extra in self.spans:
                fh.write(json.dumps([name, t0, t1, parent, task, extra]) + "\n")


def _ratio(num, den):
    return num / den if den else 0.0


def summarize(spans, delivered_pairs):
    """Per-layer metrics from one pass's spans.

    delivered_pairs is the number of row pairs in the matrices the tasks
    handed back to their caller, the base of matrices.verify_redundancy.
    """
    n = len(spans)
    child_time = [0] * n
    has_plan_child = [False] * n
    for name, t0, t1, parent, _, _ in spans:
        if parent >= 0:
            child_time[parent] += t1 - t0
            if name == "constructions.plan":
                has_plan_child[parent] = True

    def nested_in_same(i):
        name = spans[i][0]
        p = spans[i][3]
        while p >= 0:
            if spans[p][0] == name:
                return True
            p = spans[p][3]
        return False

    calls = defaultdict(int)
    incl = defaultdict(float)  # outermost spans only, so recursion counts once
    self_s = defaultdict(float)
    layer_self_ns = defaultdict(int)
    c = defaultdict(int)
    for i, (name, t0, t1, parent, _, extra) in enumerate(spans):
        dur = (t1 - t0) / 1e9
        own_ns = t1 - t0 - child_time[i]
        own = own_ns / 1e9
        outermost = not nested_in_same(i)
        calls[name] += 1
        self_s[name] += own
        layer_self_ns[name.split(".", 1)[0]] += own_ns
        if outermost:
            incl[name] += dur
        if name == "search.run" and extra is not None:
            c["cand_rows"] += extra[0]
            c["nodes"] += extra[1]
        elif name == "matrices.verify_mh":
            c["pairs"] += extra
        elif name in ("matrices.format_matrix_text", "matrices.parse_matrix_text"):
            c["text_bytes"] += extra
        elif name == "constructions.materialize":
            c["bits"] += extra
        elif name == "numtheory.is_prime" and extra:
            c["big_calls"] += 1
            if outermost:
                c["big_s"] += dur
        elif name == "numtheory.condition1_verify" and extra:
            c["witnesses"] += 1
        elif name == "existence.decide" and not has_plan_child[i]:
            c["early"] += 1

    out = {
        "search.run.calls": calls["search.run"],
        "search.run.s": incl["search.run"],
        "search.self_s": self_s["search.run"],
        "search.candidates.s": incl["search.candidate_rows"],
        "search.candidate_rows": c["cand_rows"],
        "search.nodes": c["nodes"],
        "search.nodes_per_s": _ratio(c["nodes"], self_s["search.run"]),
        "matrices.verify_mh.calls": calls["matrices.verify_mh"],
        "matrices.verify_mh.s": incl["matrices.verify_mh"],
        "matrices.verify_mh.pairs": c["pairs"],
        "matrices.delivered_pairs": delivered_pairs,
        "matrices.verify_redundancy": _ratio(c["pairs"], delivered_pairs),
        "matrices.kronecker.calls": calls["matrices.kronecker"],
        "matrices.kronecker.self_s": self_s["matrices.kronecker"],
        "matrices.core_to_design.calls": calls["matrices.core_to_design"],
        "matrices.core_to_design.self_s": self_s["matrices.core_to_design"],
        "matrices.text.s": incl["matrices.format_matrix_text"]
        + incl["matrices.parse_matrix_text"],
        "matrices.text.bytes": c["text_bytes"],
        "constructions.plan.calls": calls["constructions.plan"],
        "constructions.plan.s": incl["constructions.plan"],
        "constructions.materialize.calls": calls["constructions.materialize"],
        "constructions.materialize.self_s": self_s["constructions.materialize"],
        "constructions.materialize.bits": c["bits"],
        "constructions.paley_hadamard.s": incl["constructions.paley_hadamard"],
        "existence.decide.calls": calls["existence.decide"],
        "existence.decide.self_s": self_s["existence.decide"],
        "existence.decide.early": c["early"],
        "existence.early_frac": _ratio(c["early"], calls["existence.decide"]),
        "numtheory.is_prime.calls": calls["numtheory.is_prime"],
        "numtheory.is_prime.s": incl["numtheory.is_prime"],
        "numtheory.is_prime.big_calls": c["big_calls"],
        "numtheory.is_prime.big_s": c["big_s"],
        "numtheory.is_prime_power.calls": calls["numtheory.is_prime_power"],
        "numtheory.is_prime_power.self_s": self_s["numtheory.is_prime_power"],
        "numtheory.condition1_verify.calls": calls["numtheory.condition1_verify"],
        "numtheory.condition1.witnesses": c["witnesses"],
        "numtheory.condition1.hit_ratio": _ratio(
            c["witnesses"], calls["numtheory.condition1_verify"]
        ),
        "cli.main.self_s": self_s["cli.main"],
    }
    for layer in LAYERS:
        out["layer.%s.self_s" % layer] = layer_self_ns[layer] / 1e9
    out["trace.self_sum_s"] = sum(layer_self_ns.values()) / 1e9
    out["trace.spans"] = n
    return out
