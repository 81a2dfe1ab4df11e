"""Command-line interface: run identity suites, evaluate forms, sample points.

Exit codes: 0 pass, 1 identity failure, 2 usage or config error (a
ValueError or TypeError), 3 numeric breakdown (any `liecore.NumericalFailure`:
branch cut, non-normal logarithm, non-convergence, quadrature failure,
non-generic point, non-finite residual). A breakdown in `verify`
names its suite, and the identity and sample when a sample raised it; one
in a report-only record still writes the report, then exits 3.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import fields, replace

import numpy as np

from . import forms
from . import liecore as lc
from . import moduli as md
from . import suites as su

_CONFIG_KEYS = tuple(f.name for f in fields(su.RunConfig) if f.name != "jobs")


def _parse_int_list(text):
    """The degrees of a comma list such as "2,3"."""
    out = []
    for tok in filter(str.strip, str(text).split(",")):
        try:
            out.append(int(tok))
        except ValueError:
            raise ValueError(
                f"r_list entry must be int, not {tok.strip()!r}") from None
    return tuple(out)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="flatmod",
        description="Verify characteristic-form identities on group powers, "
        "evaluate generator forms, and sample relator level sets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config_flags(p):
        p.add_argument("--config", help="JSON file with run settings")
        p.add_argument("--N", type=int, help="group size (default 2)")
        p.add_argument("--genus", type=int, help="surface genus (default 2)")
        p.add_argument("--beta", type=int, dest="beta_index",
                       help="central phase index (default 1)")
        p.add_argument("--r", help="comma list of polynomial degrees "
                       "(default 2)")
        p.add_argument("--seed", type=int, help="run seed (default 0)")
        p.add_argument("--samples", type=int, dest="sample_count",
                       help="samples per identity (default 20)")
        p.add_argument("--fd-step", type=float, dest="fd_step",
                       help="finite-difference step (default 1e-4)")
        p.add_argument("--tol-fd", type=float, dest="tol_fd",
                       help="tolerance on finite-difference paths "
                       "(default 1e-6)")
        p.add_argument("--tol-quad", type=float, dest="tol_quad",
                       help="tolerance on quadrature paths (default 1e-9)")
        p.add_argument("--quad-nodes", type=int, dest="quad_nodes",
                       help="node cap for the radial quadrature, which "
                       "runs for polynomial degrees >= 3 and the homotopy "
                       "identity (at least 16; default 256)")
        p.add_argument("--out", help="write JSON output to this file")

    verify = sub.add_parser("verify", help="run identity suites")
    add_config_flags(verify)
    verify.add_argument("--suite", action="append", dest="suites",
                        choices=su.SUITE_NAMES,
                        help="suite to run (repeatable; default all)")

    ev = sub.add_parser("eval", help="evaluate a form at points")
    add_config_flags(ev)
    ev.add_argument("--form", required=True,
                    help="a_R, b_R_J, f_R, omega, omega_tilde, sigma_Q, "
                    "or extended_{a,b,f}_...")
    where = ev.add_mutually_exclusive_group()
    where.add_argument("--points", help="JSON point file written by sample")
    where.add_argument("--sample", type=int,
                       help="evaluate at this many random points instead "
                       "(default 1), on the relator level set for "
                       "--frame reduced")
    ev.add_argument("--frame", choices=("random", "reduced", "phi-basis"),
                    default="random", help="tangent frame choice")

    sa = sub.add_parser("sample", help="sample the relator level set or "
                        "its chart lifts")
    add_config_flags(sa)
    sa.add_argument("--space", choices=("Y", "X"), default="Y")
    sa.add_argument("--count", type=int, default=5)
    sa.add_argument("--perturbation", type=float,
                    help="size of the random step off the seed point before "
                    "projecting back to Y (default 0.25; --space Y only)")
    return parser


def _load_config(args):
    data = {}
    if getattr(args, "config", None):
        try:
            with open(args.config) as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ValueError(f"cannot read config file: {exc}") from exc
        if not isinstance(data, dict):
            raise ValueError("config file must hold a JSON object")
        unknown = set(data) - set(_CONFIG_KEYS)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
    for key in _CONFIG_KEYS:
        value = getattr(args, key, None)
        if value is not None:
            data[key] = value
    if getattr(args, "r", None):
        data["r_list"] = args.r
    if isinstance(data.get("r_list"), str):
        data["r_list"] = _parse_int_list(data["r_list"])
    return su.RunConfig(**data)


def _emit(payload, out_path):
    text = json.dumps(payload, indent=2, sort_keys=True)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _cmd_verify(args):
    config = _load_config(args)
    report = su.run_suites(config)
    for line in su.report_lines(report):
        print(line, file=sys.stderr)
    _emit(report.to_dict(), args.out)
    failures = [r.failure for r in report.records if r.failure]
    for failure in failures:
        print(f"numeric failure: {failure}", file=sys.stderr)
    return 3 if failures else (0 if report.overall_pass else 1)


_FORM_PATTERN = re.compile(r"^(extended_)?([abf])_(\d+)(?:_(\d+))?$")


def _resolve_form(form_id, config):
    if form_id == "omega":
        return ("plain", md.goldman_form(config))
    if form_id == "omega_tilde":
        return ("plain", md.omega_tilde(config))
    if form_id == "sigma_Q":
        Q = lc.chern_polynomial(config.N, config.r_list[0])
        return ("algebra", md.sigma_Q(config, Q, max_nodes=config.quad_nodes))
    m = _FORM_PATTERN.match(form_id)
    if not m:
        raise ValueError(f"unknown form id {form_id!r}")
    extended, kind, r, j = m.group(1), m.group(2), int(m.group(3)), m.group(4)
    j = int(j) if j is not None else None
    if (kind == "b") != (j is not None):
        raise ValueError("b-forms need a generator index, e.g. b_2_1; "
                         "a- and f-forms take none")
    replace(config, r_list=(r,))  # the degree rule of --r
    if extended:
        field = md.extended_generator(config, kind, r, j=j,
                                      max_nodes=config.quad_nodes)
    else:
        field = md.generator_form(config, kind, r, j=j)
    return ("group" if kind != "a" else "constant", field)


def _load_points(config, path, count):
    if path:
        try:
            with open(path) as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ValueError(f"cannot read point file: {exc}") from exc
        if isinstance(data, dict) and "points" in data:
            data = data["points"]
        if not isinstance(data, list):
            raise ValueError(
                'a point file holds a list of points or an object with "points"')
        pts = []
        for i, entry in enumerate(data):
            body = entry.get("matrices", entry.get("h")) if isinstance(
                entry, dict) else entry
            try:
                pts.append(forms.point(
                    config.shape, *md.point_from_json(body).parts))
            except (TypeError, ValueError) as exc:
                raise ValueError(
                    f"point {i}: {exc}; a point is {config.num_generators} "
                    f"matrices, each {config.N} rows of [re, im] pairs"
                ) from exc
        return pts
    rng = lc.as_rng(config.seed)
    return [forms.random_point(config.shape, rng) for _ in range(count)]


def _c2(value):
    value = complex(value)
    return [value.real, value.imag]


def _cmd_eval(args):
    """Evaluate a form at points. Plain forms take no phi. sigma_Q's points
    Lam and tangents are coordinate rows on the algebra, drawn in turn with
    its phis. A constant form a_r has one entry: its values on the algebra
    basis. A flag that the form cannot use is refused."""
    config = _load_config(args)
    count = 1 if args.sample is None else args.sample
    if count < 0:
        raise ValueError("sample must be nonnegative")
    kind, field = _resolve_form(args.form, config)
    arities = (field.arity,) if kind == "plain" else field.arities
    for flag, refused in (
            ("--points", args.points and kind in ("algebra", "constant")),
            ("--sample", args.sample is not None and kind == "constant"),
            ("--frame phi-basis", args.frame == "phi-basis"
             and kind in ("plain", "constant")),
            ("--frame reduced", args.frame == "reduced"
             and (kind == "algebra" or 2 not in arities))):
        if refused:
            raise ValueError(f"form {args.form} does not take {flag}")
    rng = lc.as_rng(config.seed + 1)
    d, basis = config.algebra_dim, lc.algebra_basis(config.N)
    evaluations = []
    if kind == "constant":
        Q = lc.chern_polynomial(config.N, field.phi_degree)
        entry = {"point_index": None, "arity": 0}
        if field.phi_degree == 2:
            entry["gram"] = [[_c2(Q(a, b)) for b in basis] for a in basis]
        entry["diagonal"] = [_c2(Q(*([a] * field.phi_degree))) for a in basis]
        evaluations.append(entry)
        points = []
    elif kind == "algebra":
        points = (forms.Point((rng.standard_normal(d) * 0.7,))
                  for _ in range(count))
    elif args.frame == "reduced" and not args.points:
        # the reduced frame lives on the relator level set: the points of
        # `sample --space Y --count K`
        points = md.sample_Y(config, config.seed, count)
    else:
        points = _load_points(config, args.points, count)

    def tangent():
        if kind == "algebra":
            return forms.Tangent((rng.standard_normal(d),))
        return forms.random_tangent(config.shape, rng)

    def value(phi, pt, *vs):
        return _c2(field(pt, *vs) if phi is None else field(phi, pt, *vs))

    for i, pt in enumerate(points):
        if kind == "plain":
            phis = [None]
        elif args.frame == "phi-basis":
            phis = basis
        else:
            phis = [lc.random_algebra(config.N, rng)]
        if args.frame == "reduced":
            form = field if kind == "plain" else forms.at_phi(
                field, phis[0], 2)
            vals = md.frame_matrix(config, form, pt,
                                   md.reduced_frame(config, pt).quotient)
            evaluations.append({
                "point_index": i, "arity": 2, "frame": "reduced",
                "matrix": [[_c2(x) for x in row] for row in vals]})
            continue
        for p in (field.arity,) if kind == "plain" else field.arities:
            vs = [tangent() for _ in range(p)]
            for a, phi in enumerate(phis):
                entry = {"point_index": i, "arity": p,
                         "value": value(phi, pt, *vs)}
                if len(phis) > 1:
                    entry["phi_index"] = a
                if kind == "algebra":
                    entry["lam"] = list(map(float, pt.parts[0]))
                evaluations.append(entry)
    _emit({"form": args.form, "evaluations": evaluations}, args.out)
    return 0


def _cmd_sample(args):
    config = _load_config(args)
    if args.count < 0:
        raise ValueError("count must be nonnegative")
    if args.perturbation is not None:
        if args.space == "X":
            raise ValueError("space X does not take --perturbation")
        if not np.isfinite(args.perturbation):
            raise ValueError("perturbation must be finite")
    eps, beta = md.epsilon_R(config), config.beta.matrix()

    def residual(pt, target):
        return float(np.linalg.norm(eps.evaluate(pt.parts)[0] - target))

    if args.space == "Y":
        stats = {}
        step = {} if args.perturbation is None else {
            "perturbation": args.perturbation}
        pts = md.sample_Y(config, config.seed, args.count, stats=stats, **step)
        entries = [{"matrices": md.point_to_json(p),
                    "residual": residual(p, beta)} for p in pts]
        failures = stats.get("failures", 0)
    else:
        rng = lc.as_rng(config.seed)
        entries = []
        for _ in range(args.count):
            h = forms.random_point(config.shape, rng)
            lam = md.relator_residual(config, h)
            entries.append({"h": md.point_to_json(h),
                            "lam": lc.matrix_to_json(lam),
                            "residual": residual(h, beta @ lc.exp_alg(lam))})
        failures = 0
    _emit({"space": args.space, "count": len(entries), "failures": failures,
           "points": entries}, args.out)
    return 0


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "eval":
            return _cmd_eval(args)
        return _cmd_sample(args)
    except lc.NumericalFailure as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
