"""Verify-time benchmark of flatmod with per-layer attribution.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: flatmod is imported from ./src,
nothing needs installing. Each workload is one `suites.run_suites` call
(jobs=1) on a fixed config whose RunConfig.seed is --seed; flatmod draws
every sample input from that seed. A run repeats the call, each time in a
fresh interpreter (child.py), for about --seconds, and reports medians.
Times are scaled to the machine's uncontended speed with a reference loop
each child times around its verify call (see REF_NOMINAL_S).

--trace 0 prints the end-to-end metrics. --trace 1 adds one traced child
(tracer.py wraps the layer boundaries from outside the package) and prints
the per-layer metrics; its spans go to .bench_out/. Either way the run
checks the reports: every identity and sample count the workload defines is
present, every gated record passes except the known red ones, and all
children, traced or not, return identical records. The last line of stdout
is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPANS_DIR = ROOT / ".bench_out"

EPS = sys.float_info.epsilon
# The reference loop in child.py takes about this long on an uncontended core
# of the 2-core Xeon (2.1 GHz) the baseline was taken on. Each child's times
# are multiplied by REF_NOMINAL_S / its own loop time. On that machine the
# loop ran anywhere from 0.10 s to 0.19 s as other tenants' load came and
# went, and raw verify times drifted by as much as 70% within seven minutes
# (ten-seed spread up to 0.32); scaled, the spread stayed within 0.06-0.09.
# A change to flatmod moves the scaled time one for one.
REF_NOMINAL_S = 0.1
MIN_RUNS = 3            # untraced children per run, whatever --seconds says
HARD_LIMIT_S = 150.0    # no child starts that would end past this
DEADLINE_S = 175.0      # a hung child is killed by then


@dataclass(frozen=True)
class Workload:
    why: str
    config: dict
    expected: dict        # identity id -> sample count
    known_red: frozenset  # gated records allowed to fail (and to pass)


def _cocycle_n3(s):
    ids = {}
    for r in (2, 3):
        for name in ("level1-closed", "coboundary-12", "top-cycle", "vanishing"):
            ids[f"cocycle.{name}.r{r}"] = s
        for name in ("level1-closed", "coboundary-12", "top-cycle"):
            ids[f"equivariant.{name}.r{r}"] = s
    return Workload(
        why="N=3 degree-3 Chern fiber integrals and FD stencils; no chart, "
            "no radial quadrature, short words",
        config=dict(N=3, beta_index=0, r_list=[2, 3], sample_count=s,
                    suites=["cocycle", "equivariant-cocycle"], jobs=1),
        expected=ids, known_red=frozenset())


def _chart_n2(s):
    few = min(s, 10)
    ids = {
        "extended.f-closed.r2": s, "extended.b-closed.r2": s,
        "extended.restriction.r2": few, "extended.crosspath.r2": s,
        "extended.transgression.r2": few, "extended.growth-probe.r2": 1,
        "extended.homotopy-identity": s,
        "moment.omega-tilde-closed": s, "moment.omega-bar-closed": s,
        "moment.linear-part": few, "moment.linear-part-measured": few,
    }
    return Workload(
        why="genus-2 chart: sigma_Q radial quadrature composed with the "
            "chart log and dexp/dlog; small Chern polynomial",
        config=dict(N=2, genus=2, beta_index=1, r_list=[2], sample_count=s,
                    suites=["extended", "moment"], jobs=1),
        expected=ids, known_red=frozenset({"moment.linear-part"}))


def _surface_g3(s):
    few = min(s, 10)
    ids = {
        # relator derivatives for genus 2 and 3, boundaries for both
        "fox.relator-derivatives": 4 + 6, "fox.fundamental-boundary": 2,
        "fox.fundamental-identity": s, "goldman.exactness": s,
        "rank.skew": few, "rank.gap": few, "rank.quotient-condition": few,
    }
    return Workload(
        why="genus-3 Goldman form and rank certificate: word-map "
            "pushforwards of a 12-letter relator, no radial quadrature",
        config=dict(N=2, genus=3, beta_index=1, sample_count=s,
                    suites=["fox-symbolic", "goldman", "rank"], jobs=1),
        expected=ids,
        known_red=frozenset({"rank.gap", "goldman.exactness"}))


# sample counts set the length of one verify call (a few seconds each)
WORKLOADS = {
    "cocycle-n3": _cocycle_n3(4),
    "chart-n2": _chart_n2(4),
    "surface-g3": _surface_g3(4),
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "verify_s": "s",
    "peak_rss_mb": "MB",
    "residual_log10_mean": "log10",
}


class ChildError(RuntimeError):
    pass


def run_child(config, trace, spans_path=None, timeout=DEADLINE_S):
    """One verify call in a fresh interpreter; returns its JSON output."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    # single-thread baseline: a second BLAS thread only adds the other
    # core's contention to the timings (same median, wider spread)
    env["OPENBLAS_NUM_THREADS"] = "1"
    payload = {"config": config, "src": str(SRC), "trace": bool(trace),
               "spans_path": str(spans_path) if spans_path else None}
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), json.dumps(payload)],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise ChildError(f"child timed out after {exc.timeout} s") from exc
    wall = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-5:]
        raise ChildError(f"child exited {proc.returncode}: " + " | ".join(tail))
    out = json.loads(lines[-1])
    out["wall_s"] = wall
    return out


def gated(records):
    return [r for r in records if not r.get("report_only")]


def residual_log10_mean(records):
    """Mean over gated records with a positive tolerance of
    log10(residual / (eps * tolerance)), each residual floored at
    eps * tolerance: how many decades each record sits above machine
    precision at its own tolerance scale. The shift by log10(1/eps) keeps
    the metric positive; lower is more accurate, and a record at its
    tolerance reads log10(1/eps) = 15.65."""
    vals = [
        math.log10(max(r["max_residual"], EPS * r["tolerance"])
                   / (EPS * r["tolerance"]))
        for r in gated(records) if r["tolerance"] > 0
    ]
    return sum(vals) / len(vals)


def records_failed_share(records):
    rows = gated(records)
    return sum(not r["pass"] for r in rows) / len(rows)


def check_records(spec, records):
    """Problems with one report; an empty list means it is correct."""
    problems = []
    got = {r["identity_id"]: r for r in records}
    for ident, count in spec.expected.items():
        if ident not in got:
            problems.append(f"missing record {ident}")
        elif got[ident]["samples"] != count:
            problems.append(f"{ident}: {got[ident]['samples']} samples, "
                            f"expected {count}")
    for ident in sorted(set(got) - set(spec.expected)):
        problems.append(f"unexpected record {ident}")
    for r in gated(records):
        if not r["pass"] and r["identity_id"] not in spec.known_red:
            problems.append(f"{r['identity_id']} failed: residual "
                            f"{r['max_residual']:.3e} > {r['tolerance']:.1e}")
    return problems


def measure(spec, seed, seconds, trace, spans_path=None):
    """Run children for about `seconds` and return (result, log lines)."""
    config = dict(spec.config, seed=seed)
    start = time.monotonic()
    problems, runs, walls = [], [], []
    attempted = failed = 0
    reference = None

    def attempt(traced):
        nonlocal attempted, failed, reference
        attempted += 1
        t0 = time.monotonic()
        try:
            out = run_child(config, traced, spans_path if traced else None,
                            timeout=max(1.0, start + DEADLINE_S - t0))
        except ChildError as exc:
            walls.append(time.monotonic() - t0)
            failed += 1
            problems.append(str(exc))
            return None
        walls.append(out["wall_s"])
        bad = [f"numerical breakdown: {out['breakdown']}"] if out["breakdown"] else []
        bad += check_records(spec, out["records"])
        if reference is None:
            reference = out["records"]
        elif out["records"] != reference:
            bad.append("records differ between children of one seed")
        if bad:
            failed += 1
            problems.extend(bad)
        return out

    traced = attempt(True) if trace else None
    while True:
        out = attempt(False)
        if out is not None:
            runs.append(out)
        now = time.monotonic()
        est = statistics.median(walls)
        if now + est > start + HARD_LIMIT_S:
            break
        if attempted - bool(trace) >= MIN_RUNS and now + est > start + seconds:
            break

    records = reference or []       # a breakdown leaves no records
    if records:
        failed_share = records_failed_share(records)
        residual = residual_log10_mean(records)
    else:
        failed_share, residual = 1.0, 1e9     # no report: every record failed
    if not runs:
        problems.append("no untraced run completed")

    log = [f"workload config: {json.dumps(config)}",
           f"runs: {len(runs)} untraced" + (", 1 traced" if trace else ""),
           "per untraced run, wall verify_s / reference loop s: "
           + " ".join(f"{r['verify_s']:.3f}/{r['ref_s']:.3f}" for r in runs),
           f"unscaled medians: setup_s {_median(runs, 'setup_s'):.4f} "
           f"verify_s {_median(runs, 'verify_s'):.4f}"]
    red = sorted(r["identity_id"] for r in gated(records) if not r["pass"])
    log.append(f"records_failed_share {failed_share:.4f} ratio "
               f"(failing: {', '.join(red) or 'none'})")
    log.extend(f"problem: {p}" for p in problems)

    if not trace:
        values = {
            "setup_s": _median_scaled(runs, "setup_s"),
            "verify_s": _median_scaled(runs, "verify_s"),
            "peak_rss_mb": _median(runs, "peak_rss_mb"),
            "residual_log10_mean": residual,
        }
        units = END_TO_END_UNITS
    else:
        units = layer_metric_units()
        values = dict.fromkeys(units, 0.0)
        if traced is not None:
            values.update(traced["layers"])
            log.append(f"spans: {traced['spans']} written to {spans_path}")
        values["suites.records_failed_share"] = failed_share
        values["machine.ref_s"] = _median(runs, "ref_s")
        if traced is not None and runs:
            values["trace.overhead_share"] = (
                _scaled(traced, "verify_s") / _median_scaled(runs, "verify_s")
                - 1.0)
    metrics = {k: {"value": values[k], "unit": u} for k, u in units.items()}
    log.extend(f"{k} {m['value']:.6g} {m['unit']}" for k, m in metrics.items())
    result = {"correct": not problems, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return result, log


def layer_metric_units():
    """Name -> unit of every per-layer metric: the traced child's, one
    build and eval time per suite any workload runs, and the two the
    parent derives."""
    from tracer import LAYER_UNITS

    units = dict(LAYER_UNITS)
    for suite in dict.fromkeys(s for w in WORKLOADS.values()
                               for s in w.config["suites"]):
        units[f"suites.{suite}.build_s"] = "s"
        units[f"suites.{suite}.eval_s"] = "s"
    units["suites.records_failed_share"] = "ratio"
    units["trace.overhead_share"] = "ratio"
    units["machine.ref_s"] = "s"
    return units


def _scaled(run, key):
    return run[key] * REF_NOMINAL_S / run["ref_s"]


def _median(runs, key):
    return statistics.median(r[key] for r in runs) if runs else 0.0


def _median_scaled(runs, key):
    return statistics.median(_scaled(r, key) for r in runs) if runs else 0.0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "flatmod" / "suites.py").is_file():
        sys.exit(f"no flatmod source under {SRC}; run from a source checkout")
    spans_path = None
    if args.trace:
        SPANS_DIR.mkdir(exist_ok=True)
        spans_path = SPANS_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
    result, log = measure(WORKLOADS[args.workload], args.seed, args.seconds,
                          args.trace, spans_path)
    for line in log:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
