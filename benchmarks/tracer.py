"""Per-layer tracing for the benchmark, installed from outside the package.

`Tracer.install()` replaces functions and methods at the boundaries of the
flatmod layers (liecore, simplicial, words, moduli, forms; all public except
`forms._check_margin`, which raises the margin errors) and the suite
builders in `suites._BUILDERS` with wrappers that record spans and counters;
`Tracer.uninstall()` puts every original back. Nothing under src/ is edited, and the wrappers return
the wrapped call's result unchanged, so a traced report has the same records
as an untraced one (the benchmark checks this on every traced run).

A span is one call across a layer boundary: its name, start, end, parent
span and a tag (suite, identity, sample index). Span stacks are
thread-local because the suites run their samples on a pool worker thread.
Spans are kept in memory in flat arrays and written out by `dump()` after
the run. A layer's self time is its span time minus the time of the spans
nested directly inside it.

Traced code runs on one thread at a time: at jobs=1 the main thread builds
a suite's tasks and then waits while the pool's single worker runs the
samples. The spans and counters are therefore not locked; tracing a jobs>1
run would need a lock around every update.
"""

from __future__ import annotations

import gzip
import json
import threading
import time
from array import array
from collections import defaultdict

# spans with a self-time metric, in the order of the layer stack
SPAN_NAMES = (
    "liecore.poly", "liecore.matfn",
    "simplicial.fiber",
    "words.push", "words.evaluate", "words.fox",
    "moduli.quad", "moduli.chart", "moduli.project", "moduli.frame",
    "forms.d", "forms.pullback",
    "suites.build", "suites.sample",
)

# unit of every metric Tracer.metrics() reports, besides one build and one
# eval time per suite that ran
LAYER_UNITS = {
    "liecore.poly.calls": "count",
    "liecore.poly.rows": "count",
    "liecore.poly.rows_per_call": "rows/call",
    "liecore.poly.self_s": "s",
    "liecore.matfn.calls": "count",
    "liecore.matfn.self_s": "s",
    "liecore.adjoint.calls": "count",
    "liecore.branch_cut_errors": "count",
    "simplicial.fiber.calls": "count",
    "simplicial.fiber.self_s": "s",
    "simplicial.fiber.rows_per_call": "rows/call",
    "simplicial.rule.builds": "count",
    "simplicial.rule.s": "s",
    "words.push.calls": "count",
    "words.push.letters": "count",
    "words.push.self_s": "s",
    "words.evaluate.calls": "count",
    "words.evaluate.self_s": "s",
    "words.evaluate.distinct_share": "ratio",
    "words.fox.calls": "count",
    "words.fox.self_s": "s",
    "moduli.quad.values": "count",
    "moduli.quad.integrand_evals": "count",
    "moduli.quad.evals_per_value": "evals/value",
    "moduli.quad.self_s": "s",
    "moduli.quad.failures": "count",
    "moduli.chart.calls": "count",
    "moduli.chart.self_s": "s",
    "moduli.project.calls": "count",
    "moduli.project.iters": "count",
    "moduli.project.failures": "count",
    "moduli.project.self_s": "s",
    "moduli.chart_sample.accept_share": "ratio",
    "moduli.frame.self_s": "s",
    "forms.d.calls": "count",
    "forms.d.evals_per_call": "evals/call",
    "forms.d.self_s": "s",
    "forms.flow.calls": "count",
    "forms.pullback.self_s": "s",
    "forms.margin_errors": "count",
    "suites.build_s": "s",
    "suites.samples_s": "s",
    "suites.orchestration_s": "s",
    "suites.sample_max_s": "s",
}


def _ratio(num, den):
    return num / den if den else 0.0


class Tracer:
    """Span and counter recorder with install/uninstall of the wrappers."""

    def __init__(self):
        self._local = threading.local()
        self._names = list(SPAN_NAMES)
        self._name_id = {n: i for i, n in enumerate(self._names)}
        self._tags = [("", "", -1)]
        self._start = array("d")
        self._end = array("d")
        self._name = array("i")
        self._parent = array("i")
        self._tag = array("i")
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.totals = defaultdict(float)    # inclusive seconds by (name, suite)
        self.sample_max_s = 0.0
        self._distinct_evals = set()
        self._saved = []

    # -- spans ---------------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def top_name(self):
        stack = self._stack()
        return self._names[stack[-1][1]] if stack else ""

    def _enter(self, nid, tag=None, token=None):
        stack = self._stack()
        if tag is None:
            tag = stack[-1][3] if stack else 0
        parent = stack[-1][0] if stack else -1
        t0 = time.perf_counter()
        idx = len(self._start)
        self._start.append(t0)
        self._end.append(t0)
        self._name.append(nid)
        self._parent.append(parent)
        self._tag.append(tag)
        # [span index, name id, start, tag, child seconds, token]
        frame = [idx, nid, t0, tag, 0.0, token]
        stack.append(frame)
        return frame

    def _exit(self, frame):
        t1 = time.perf_counter()
        stack = self._stack()
        stack.pop()
        dur = t1 - frame[2]
        self._end[frame[0]] = t1
        if stack:
            stack[-1][4] += dur
        name = self._names[frame[1]]
        self.calls[name] += 1
        self.self_s[name] += dur - frame[4]
        return dur

    def timed(self, name, fn, token=None):
        """fn wrapped in a span called name."""
        nid = self._name_id[name]

        def wrapper(*args, **kwargs):
            frame = self._enter(nid, token=token)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(frame)

        return wrapper

    def top_token(self):
        stack = self._stack()
        return stack[-1][5] if stack else None

    def _tag_id(self, suite, identity, sample):
        self._tags.append((suite, identity, sample))
        return len(self._tags) - 1

    def suite_span(self, name, fn, suite, identity="", sample=-1):
        """fn wrapped in a suite-level span that tags everything below it."""
        nid = self._name_id[name]
        tag = self._tag_id(suite, identity, sample)

        def wrapper(*args, **kwargs):
            frame = self._enter(nid, tag=tag)
            try:
                return fn(*args, **kwargs)
            finally:
                dur = self._exit(frame)
                self.totals[(name, suite)] += dur
                if name == "suites.sample":
                    self.sample_max_s = max(self.sample_max_s, dur)

        return wrapper

    # -- patching ------------------------------------------------------------

    def _patch(self, owner, attr, make):
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def install(self):
        """Wrap the layer boundaries; undo with uninstall()."""
        from flatmod import forms
        from flatmod import liecore as lc
        from flatmod import moduli as md
        from flatmod import simplicial as sp
        from flatmod import suites as su
        from flatmod import words as wd

        try:
            self._install_liecore(lc)
            self._install_simplicial(sp)
            self._install_words(wd)
            self._install_moduli(md, lc, forms)
            self._install_forms(forms)
            self._install_suites(su)
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    def _counted(self, key, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _errors_counted(self, key, exc_type, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            except exc_type:
                counts[key] += 1
                raise

        return wrapper

    def _install_liecore(self, lc):
        counts = self.counts

        def eval_batch(orig):
            timed = self.timed("liecore.poly", orig)

            def wrapper(poly, stack):
                rows = len(stack)
                counts["liecore.poly.rows"] += rows
                if self.top_name() == "simplicial.fiber":
                    counts["simplicial.fiber.rows"] += rows
                return timed(poly, stack)
            return wrapper

        self._patch(lc.InvariantPolynomial, "eval_batch", eval_batch)
        for name in ("exp_alg", "dexp_left"):
            self._patch(lc, name, lambda f: self.timed("liecore.matfn", f))
        for name in ("log_group", "dlog_left"):
            self._patch(lc, name, lambda f: self.timed(
                "liecore.matfn", self._errors_counted(
                    "liecore.branch_cut_errors", lc.BranchCutError, f)))
        self._patch(lc, "adjoint",
                    lambda f: self._counted("liecore.adjoint.calls", f))

    def _install_simplicial(self, sp):
        counts = self.counts

        def traced_field(orig):
            def wrapper(*args, **kwargs):
                field = orig(*args, **kwargs)
                if hasattr(field, "components"):
                    field.components = {
                        p: self.timed("simplicial.fiber", fn)
                        for p, fn in field.components.items()}
                else:
                    field.fn = self.timed("simplicial.fiber", field.fn)
                return field
            return wrapper

        self._patch(sp, "bott_shulman_total", traced_field)
        self._patch(sp, "bott_shulman_total_equivariant", traced_field)

        def simplex_rule(orig):
            def wrapper(*args, **kwargs):
                misses = orig.cache_info().misses
                t0 = time.perf_counter()
                out = orig(*args, **kwargs)
                if orig.cache_info().misses > misses:
                    counts["simplicial.rule.builds"] += 1
                    self.totals[("simplicial.rule", "")] += time.perf_counter() - t0
                return out
            return wrapper

        self._patch(sp, "simplex_rule", simplex_rule)

    def _install_words(self, wd):
        counts = self.counts
        seen = self._distinct_evals

        def push(orig):
            timed = self.timed("words.push", orig)

            def wrapper(wmap, mats, tangents):
                counts["words.push.letters"] += sum(
                    len(w) for _, w in wmap.components)
                return timed(wmap, mats, tangents)
            return wrapper

        def evaluate(orig):
            timed = self.timed("words.evaluate", orig)

            def wrapper(wmap, mats):
                seen.add((wmap, tuple(m.tobytes() for m in mats)))
                return timed(wmap, mats)
            return wrapper

        self._patch(wd.WordMap, "push", push)
        self._patch(wd.WordMap, "evaluate", evaluate)
        self._patch(wd, "fox_derivative", lambda f: self.timed("words.fox", f))

    def _install_moduli(self, md, lc, forms):
        counts = self.counts

        def homotopy_h(orig):
            def wrapper(field, *args, **kwargs):
                proxy = forms.EquivariantFormField(
                    field.shape, field.actions,
                    {p: self._counted("moduli.quad.integrand_evals", fn)
                     for p, fn in field.components.items()},
                    phi_degree=field.phi_degree, name=field.name)
                out = orig(proxy, *args, **kwargs)
                out.components = {
                    p: self.timed("moduli.quad", self._errors_counted(
                        "moduli.quad.failures", md.QuadratureError, fn))
                    for p, fn in out.components.items()}
                return out
            return wrapper

        def relator_jacobian(orig):
            def wrapper(*args, **kwargs):
                if self.top_name() == "moduli.project":
                    counts["moduli.project.iters"] += 1
                return orig(*args, **kwargs)
            return wrapper

        def sample_chart_points(orig):
            def wrapper(config, seed, count, *args, **kwargs):
                out = orig(config, seed, count, *args, **kwargs)
                counts["moduli.chart_sample.accepted"] += len(out)
                return out
            return wrapper

        self._patch(md, "homotopy_h", homotopy_h)
        self._patch(md, "relator_residual",
                    lambda f: self.timed("moduli.chart", f))
        self._patch(md, "project_to_level", lambda f: self.timed(
            "moduli.project", self._errors_counted(
                "moduli.project.failures",
                (md.ConvergenceError, lc.BranchCutError), f)))
        self._patch(md, "relator_jacobian", relator_jacobian)
        self._patch(md, "sample_chart_points", sample_chart_points)
        self._patch(md, "cut_margin", lambda f: self._counted(
            "moduli.chart_sample.attempts", f))
        self._patch(md, "reduced_frame", lambda f: self.timed("moduli.frame", f))

    def _install_forms(self, forms):
        counts = self.counts

        def counting(token, fn):
            # counts only evaluations made directly by the d that owns token,
            # not those made by a d nested inside it
            def wrapper(*args):
                if self.top_token() is token:
                    counts["forms.d.evals"] += 1
                return fn(*args)
            return wrapper

        def exterior_derivative(orig):
            def wrapper(f, *args, **kwargs):
                token = object()
                proxy = forms.FormField(
                    f.shape, f.arity, counting(token, f), name=f.name)
                out = orig(proxy, *args, **kwargs)
                out.fn = self.timed("forms.d", out.fn, token=token)
                return out
            return wrapper

        def cartan_differential(orig):
            def wrapper(ef, *args, **kwargs):
                token = object()
                proxy = forms.EquivariantFormField(
                    ef.shape, ef.actions,
                    {p: counting(token, fn) for p, fn in ef.components.items()},
                    phi_degree=ef.phi_degree, name=ef.name)
                out = orig(proxy, *args, **kwargs)
                out.components = {
                    p: self.timed("forms.d", fn, token=token)
                    for p, fn in out.components.items()}
                return out
            return wrapper

        def pullback(orig):
            def wrapper(*args, **kwargs):
                out = orig(*args, **kwargs)
                if hasattr(out, "components"):
                    out.components = {
                        p: self.timed("forms.pullback", fn)
                        for p, fn in out.components.items()}
                else:
                    out.fn = self.timed("forms.pullback", out.fn)
                return out
            return wrapper

        self._patch(forms, "exterior_derivative", exterior_derivative)
        self._patch(forms, "cartan_differential", cartan_differential)
        self._patch(forms, "pullback", pullback)
        self._patch(forms, "pullback_equivariant", pullback)
        self._patch(forms, "flow", lambda f: self._counted("forms.flow.calls", f))
        self._patch(forms, "_check_margin", lambda f: self._errors_counted(
            "forms.margin_errors", forms.SimplexMarginError, f))

    def _install_suites(self, su):
        builders = su._BUILDERS
        for suite, build in list(builders.items()):
            def traced_build(config, suite=suite, build=build):
                tasks = build(config)
                for task in tasks:
                    task.samples = [
                        self.suite_span("suites.sample", fn, suite,
                                        task.identity_id, i)
                        for i, fn in enumerate(task.samples)]
                return tasks
            self._saved.append((builders, suite, build))
            builders[suite] = self.suite_span("suites.build", traced_build, suite)

    # -- results -------------------------------------------------------------

    def metrics(self, verify_s):
        """The per-layer metrics of the traced run, except those the parent
        derives from several runs."""
        c, n, s = self.counts, self.calls, self.self_s
        build_s = sum(v for (name, _), v in self.totals.items()
                      if name == "suites.build")
        samples_s = sum(v for (name, _), v in self.totals.items()
                        if name == "suites.sample")
        out = {
            "liecore.poly.calls": n["liecore.poly"],
            "liecore.poly.rows": c["liecore.poly.rows"],
            "liecore.poly.rows_per_call": _ratio(
                c["liecore.poly.rows"], n["liecore.poly"]),
            "liecore.poly.self_s": s["liecore.poly"],
            "liecore.matfn.calls": n["liecore.matfn"],
            "liecore.matfn.self_s": s["liecore.matfn"],
            "liecore.adjoint.calls": c["liecore.adjoint.calls"],
            "liecore.branch_cut_errors": c["liecore.branch_cut_errors"],
            "simplicial.fiber.calls": n["simplicial.fiber"],
            "simplicial.fiber.self_s": s["simplicial.fiber"],
            "simplicial.fiber.rows_per_call": _ratio(
                c["simplicial.fiber.rows"], n["simplicial.fiber"]),
            "simplicial.rule.builds": c["simplicial.rule.builds"],
            "simplicial.rule.s": self.totals[("simplicial.rule", "")],
            "words.push.calls": n["words.push"],
            "words.push.letters": c["words.push.letters"],
            "words.push.self_s": s["words.push"],
            "words.evaluate.calls": n["words.evaluate"],
            "words.evaluate.self_s": s["words.evaluate"],
            "words.evaluate.distinct_share": _ratio(
                len(self._distinct_evals), n["words.evaluate"]),
            "words.fox.calls": n["words.fox"],
            "words.fox.self_s": s["words.fox"],
            "moduli.quad.values": n["moduli.quad"],
            "moduli.quad.integrand_evals": c["moduli.quad.integrand_evals"],
            "moduli.quad.evals_per_value": _ratio(
                c["moduli.quad.integrand_evals"], n["moduli.quad"]),
            "moduli.quad.self_s": s["moduli.quad"],
            "moduli.quad.failures": c["moduli.quad.failures"],
            "moduli.chart.calls": n["moduli.chart"],
            "moduli.chart.self_s": s["moduli.chart"],
            "moduli.project.calls": n["moduli.project"],
            "moduli.project.iters": c["moduli.project.iters"],
            "moduli.project.failures": c["moduli.project.failures"],
            "moduli.project.self_s": s["moduli.project"],
            "moduli.chart_sample.accept_share": _ratio(
                c["moduli.chart_sample.accepted"],
                c["moduli.chart_sample.attempts"]),
            "moduli.frame.self_s": s["moduli.frame"],
            "forms.d.calls": n["forms.d"],
            "forms.d.evals_per_call": _ratio(c["forms.d.evals"], n["forms.d"]),
            "forms.d.self_s": s["forms.d"],
            "forms.flow.calls": c["forms.flow.calls"],
            "forms.pullback.self_s": s["forms.pullback"],
            "forms.margin_errors": c["forms.margin_errors"],
            "suites.build_s": build_s,
            "suites.samples_s": samples_s,
            "suites.orchestration_s": verify_s - build_s - samples_s,
            "suites.sample_max_s": self.sample_max_s,
        }
        for (name, suite), total in self.totals.items():
            if name == "suites.build":
                out[f"suites.{suite}.build_s"] = total
            elif name == "suites.sample":
                out[f"suites.{suite}.eval_s"] = total
        return out

    def span_count(self):
        return len(self._start)

    def dump(self, path):
        """Write every span as one JSON line, after a header naming the
        span names and tags the lines refer to by index."""
        with gzip.open(path, "wt", compresslevel=3) as fh:
            fh.write(json.dumps({
                "fields": ["name", "start_s", "end_s", "parent", "tag"],
                "names": self._names,
                "tags": self._tags,
            }) + "\n")
            t0 = self._start[0] if self._start else 0.0
            for i in range(len(self._start)):
                fh.write(json.dumps([
                    self._name[i], round(self._start[i] - t0, 7),
                    round(self._end[i] - t0, 7), self._parent[i],
                    self._tag[i]]) + "\n")
