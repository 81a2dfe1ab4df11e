"""One verify run in a fresh interpreter; prints one JSON line.

Usage: python3 child.py '<payload json>' with flatmod on PYTHONPATH. The
payload holds the RunConfig fields, the source directory flatmod must be
imported from, whether to trace, and where to write the spans. A fresh
interpreter per run makes every run pay the cold caches and imports that
`flatmod verify` pays.

A fixed reference loop of small numpy operations, independent of flatmod,
is timed just before and just after the verify call. The parent divides
the child's times by it, which takes out how fast the shared machine
happens to be running at that moment.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

import numpy as np  # noqa: E402


def reference_loop():
    """Seconds for a fixed mix of the small complex-matrix operations that
    dominate flatmod (eigh, matmul, einsum over a batch, trace)."""
    rng = np.random.default_rng(12345)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    x = 0.5 * (a - a.conj().T)
    stack = rng.standard_normal((64, 3, 3)) + 0j
    t0 = time.perf_counter()
    for _ in range(2000):
        w, u = np.linalg.eigh(1j * x)
        g = (u * np.exp(-1j * w)) @ u.conj().T
        np.einsum("bij,bji->b", stack, stack @ g).sum()
        np.trace(g @ x - x @ g)
    return time.perf_counter() - t0


def main():
    payload = json.loads(sys.argv[1])
    from flatmod import suites

    config = suites.RunConfig(**payload["config"])
    setup_s = time.perf_counter() - T0
    src = os.path.realpath(payload["src"])
    if not os.path.realpath(suites.__file__).startswith(src + os.sep):
        raise SystemExit(f"flatmod was imported from {suites.__file__}, not {src}")

    ref_before = reference_loop()
    tracer = None
    if payload["trace"]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    breakdown = None
    records = []
    try:
        t0 = time.perf_counter()
        try:
            records = [r.to_dict() for r in suites.run_suites(config).records]
        except suites.NumericalBreakdown as exc:
            breakdown = str(exc)
        verify_s = time.perf_counter() - t0
    finally:
        if tracer is not None:
            tracer.uninstall()

    ref_s = 0.5 * (ref_before + reference_loop())
    out = {
        "setup_s": setup_s,
        "verify_s": verify_s,
        "ref_s": ref_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "records": records,
        "breakdown": breakdown,
    }
    if tracer is not None:
        out["layers"] = tracer.metrics(verify_s)
        out["spans"] = tracer.span_count()
        tracer.dump(payload["spans_path"])
    print(json.dumps(out))


if __name__ == "__main__":
    main()
