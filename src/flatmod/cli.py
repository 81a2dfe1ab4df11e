"""Command-line interface: run identity suites, evaluate forms, sample points.

Exit codes: 0 pass, 1 identity failure, 2 usage or config error, 3 numeric
breakdown (branch cut, simplex margin, non-convergence, quadrature failure,
non-generic point, non-finite residual).
"""

from __future__ import annotations

import argparse
import json
import re
import sys

import numpy as np

from . import forms
from . import liecore as lc
from . import moduli as md
from . import suites as su

_CONFIG_KEYS = (
    "N", "genus", "beta_index", "r_list", "seed", "sample_count",
    "fd_step", "tol_quad", "tol_fd", "quad_nodes", "suites",
)


def _parse_int_list(text):
    return tuple(int(tok) for tok in str(text).split(",") if tok.strip())


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
                       help="node cap for the radial quadrature "
                       "(default 256)")
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
    ev.add_argument("--points", help="JSON point file from the sample command")
    ev.add_argument("--sample", type=int, default=0,
                    help="evaluate at this many random points instead")
    ev.add_argument("--frame", choices=("random", "reduced", "phi-basis"),
                    default="random", help="tangent frame choice")

    sa = sub.add_parser("sample", help="sample the relator level set or "
                        "its chart lifts")
    add_config_flags(sa)
    sa.add_argument("--space", choices=("Y", "X"), default="Y")
    sa.add_argument("--count", type=int, default=5)
    sa.add_argument("--perturbation", type=float, default=0.25)
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
    if "r_list" not in data and getattr(args, "r", None):
        data["r_list"] = _parse_int_list(args.r)
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
    return 0 if report.overall_pass else 1


_FORM_PATTERN = re.compile(r"^(extended_)?([abf])_(\d+)(?:_(\d+))?$")


def _resolve_form(form_id, config):
    mcfg = config.moduli()
    if form_id == "omega":
        return ("plain", md.goldman_form(mcfg))
    if form_id == "omega_tilde":
        return ("plain", md.omega_tilde(mcfg, max_nodes=config.quad_nodes))
    if form_id == "sigma_Q":
        Q = lc.chern_polynomial(mcfg.N, config.r_list[0])
        return ("algebra", md.sigma_Q(mcfg, Q, max_nodes=config.quad_nodes))
    m = _FORM_PATTERN.match(form_id)
    if not m:
        raise ValueError(f"unknown form id {form_id!r}")
    extended, kind, r, j = m.group(1), m.group(2), int(m.group(3)), m.group(4)
    j = int(j) if j is not None else None
    if kind == "b" and j is None:
        raise ValueError("b-forms need a generator index, e.g. b_2_1")
    if extended:
        field = md.extended_generator(mcfg, kind, r, j=j,
                                      max_nodes=config.quad_nodes)
    else:
        field = md.generator_form(mcfg, kind, r, j=j)
    return ("group" if kind != "a" else "constant", field)


def _load_points(config, args):
    mcfg = config.moduli()
    if args.points:
        try:
            with open(args.points) as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ValueError(f"cannot read point file: {exc}") from exc
        entries = data.get("points", data) if isinstance(data, dict) else data
        pts = []
        for entry in entries:
            body = entry.get("matrices", entry.get("h")) if isinstance(
                entry, dict) else entry
            pts.append(forms.point(mcfg.shape, *md.point_from_json(body).parts))
        return pts
    count = args.sample if args.sample else 1
    rng = lc.as_rng(config.seed)
    return [forms.random_point(mcfg.shape, rng) for _ in range(count)]


def _c2(value):
    value = complex(value)
    return [value.real, value.imag]


def _cmd_eval(args):
    config = _load_config(args)
    if args.sample < 0:
        raise ValueError("sample must be nonnegative")
    mcfg = config.moduli()
    kind, field = _resolve_form(args.form, config)
    rng = lc.as_rng(config.seed + 1)
    d = mcfg.algebra_dim
    basis = [lc.from_coords(np.eye(d)[a], mcfg.N) for a in range(d)]
    evaluations = []

    if kind == "constant":
        Q = lc.chern_polynomial(mcfg.N, field.phi_degree)
        entry = {"point_index": None, "arity": 0}
        if field.phi_degree == 2:
            entry["gram"] = [
                [_c2(Q(a, b)) for b in basis] for a in basis]
        entry["diagonal"] = [
            _c2(Q(*([a] * field.phi_degree))) for a in basis]
        evaluations.append(entry)
        payload = {"form": args.form, "evaluations": evaluations}
        _emit(payload, args.out)
        return 0

    if kind == "algebra":
        count = args.sample if args.sample else 1
        for i in range(count):
            lam = rng.standard_normal(d) * 0.7
            pt = forms.Point((lam,))
            phi = lc.random_algebra(mcfg.N, rng)
            for p in field.arities:
                vs = [forms.Tangent((rng.standard_normal(d),))
                      for _ in range(p)]
                evaluations.append({
                    "point_index": i, "arity": p,
                    "lam": list(map(float, lam)),
                    "value": _c2(field(phi, pt, *vs)),
                })
        payload = {"form": args.form, "evaluations": evaluations}
        _emit(payload, args.out)
        return 0

    points = _load_points(config, args)
    for i, pt in enumerate(points):
        if args.frame == "reduced":
            frame = md.reduced_frame(mcfg, pt)
            rows = [md.tangent_from_coords(mcfg, r) for r in frame.quotient]
            if kind == "plain":
                matrix = [[_c2(field(pt, u, v)) for v in rows] for u in rows]
            else:
                phi = lc.random_algebra(mcfg.N, rng)
                matrix = [[_c2(field(phi, pt, u, v)) for v in rows]
                          for u in rows]
            evaluations.append({"point_index": i, "arity": 2,
                                "frame": "reduced", "matrix": matrix})
            continue
        if kind == "plain":
            vs = [forms.random_tangent(mcfg.shape, rng)
                  for _ in range(field.arity)]
            evaluations.append({
                "point_index": i, "arity": field.arity,
                "value": _c2(field(pt, *vs)),
            })
        else:
            phis = basis if args.frame == "phi-basis" else [
                lc.random_algebra(mcfg.N, rng)]
            for p in field.arities:
                vs = [forms.random_tangent(mcfg.shape, rng) for _ in range(p)]
                for a, phi in enumerate(phis):
                    entry = {
                        "point_index": i, "arity": p,
                        "value": _c2(field(phi, pt, *vs)),
                    }
                    if len(phis) > 1:
                        entry["phi_index"] = a
                    evaluations.append(entry)
    payload = {"form": args.form, "evaluations": evaluations}
    _emit(payload, args.out)
    return 0


def _cmd_sample(args):
    config = _load_config(args)
    mcfg = config.moduli()
    if args.count < 0:
        raise ValueError("count must be nonnegative")
    if args.space == "Y":
        stats = {}
        pts = md.sample_Y(mcfg, config.seed, args.count,
                          perturbation=args.perturbation, stats=stats)
        entries = []
        for p in pts:
            val = md.epsilon_R(mcfg).evaluate(p.parts)[0]
            res = float(np.linalg.norm(val - mcfg.beta.matrix()))
            entries.append({"matrices": md.point_to_json(p), "residual": res})
        payload = {
            "space": "Y", "count": len(entries),
            "failures": stats.get("failures", 0), "points": entries,
        }
    else:
        rng = lc.as_rng(config.seed)
        entries = []
        for _ in range(args.count):
            h = forms.random_point(mcfg.shape, rng)
            x = md.lift_to_X(mcfg, h)
            entries.append({
                "h": md.point_to_json(x.h),
                "lam": lc.matrix_to_json(x.lam),
                "residual": md.x_point_residual(mcfg, x),
            })
        payload = {"space": "X", "count": len(entries), "failures": 0,
                   "points": entries}
    _emit(payload, args.out)
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
    except (su.NumericalBreakdown,) + su._NUMERIC_ERRORS as exc:
        # before the usage clause: BranchCutError and SimplexMarginError
        # are ValueErrors
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
