"""Library worker: one fresh interpreter that imports knotobs, makes one
untimed warm-up pass over the operation list, then times whole rounds of it.

    python bench/worker.py OPS.json RESULT.json SECONDS MIN_ROUNDS TRACE SETUP_ONLY

Every call goes through the module attribute at call time, so the tracer's
wrappers see it.  Outputs are serialized outside the timed region; only the
first output of each distinct value per operation is kept, for the parent to
verify.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import hashlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from fractions import Fraction  # noqa: E402

from knotobs import knots, laurent, ordered, signature, upsilon  # noqa: E402
from knotobs.errors import KnotObsError  # noqa: E402

import calibrate  # noqa: E402
from workloads import expression  # noqa: E402

_IMPORT_S = time.perf_counter() - _T0


def build(op: dict):
    """(call, serialize) for one operation; inputs are prepared here, untimed."""
    kind = op["kind"]
    if kind in ("upsilon", "jumps", "signature_at"):
        expr = knots.parse_knot(expression(op["terms"]))
        if kind == "upsilon":
            return (
                lambda: upsilon.upsilon_of_expression(expr),
                lambda fn: [[str(t), str(v)] for t, v in fn.breakpoints()],
            )
        if kind == "jumps":
            return lambda: signature.expression_jumps(expr), lambda jf: jf.as_rows()
        xs = [Fraction(x) for x in op["xs"]]
        return lambda: [signature.signature_at(expr, x) for x in xs], list
    if kind == "seifert":
        word = signature.torus_braid_word(op["p"], op["q"])
        xs = [Fraction(x) for x in op["xs"]]

        def seifert():
            V = signature.seifert_from_braid(word)
            return V, [signature.numeric_signature(V, x) for x in xs]

        return seifert, lambda r: {"V": [list(row) for row in r[0].entries], "values": r[1]}
    if kind in ("factor", "fox_milnor", "gsp_lower_bound"):
        delta = knots.alexander(knots.family(op["name"], op["n"]))
        text = laurent.format_laurent(delta)

        def as_output(r):
            return {"input": text, "result": str(r) if kind == "gsp_lower_bound" else r.as_dict()}

        return (lambda: getattr(laurent, kind)(delta)), as_output
    if kind == "sig_certificate":
        pairs = [tuple(pq) for pq in op["pairs"]]
        return lambda: signature.torus_independence_certificate(pairs, op["k"]), lambda c: c.as_dict()
    if kind == "upsilon_certificate":
        return lambda: upsilon.summand_certificate_upsilon(op["k"], op["max"]), lambda c: c.as_dict()
    if kind == "epsilon_summand":
        return lambda: ordered.summand_certificate_epsilon(op["k"], op["max"]), lambda c: c.as_dict()
    if kind == "epsilon_subgroup":
        return lambda: ordered.subgroup_certificate_epsilon(op["k"], op["max"]), lambda c: c.as_dict()
    raise ValueError(f"unknown operation kind {kind!r}")


class Outputs:
    """Distinct serialized outputs per operation index."""

    def __init__(self):
        self.seen: dict[int, set] = {}
        self.kept: dict[int, list] = {}

    def add(self, index: int, value) -> None:
        text = json.dumps(value, sort_keys=True)
        digest = hashlib.sha256(text.encode()).hexdigest()
        if digest not in self.seen.setdefault(index, set()):
            self.seen[index].add(digest)
            self.kept.setdefault(index, []).append(value)


def main(ops_path, result_path, seconds, min_rounds, trace, setup_only) -> int:
    ops = json.loads(open(ops_path).read())
    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    calls = [build(op) for op in ops]
    outputs = Outputs()
    failures: dict[int, str] = {}
    warmup = calibrate.Calibrator()
    for i, (call, serialize) in enumerate(calls):
        t0 = time.perf_counter()
        try:
            value = call()
        except KnotObsError as exc:
            failures[i] = f"{type(exc).__name__}: {exc}"
        else:
            outputs.add(i, serialize(value))
        warmup.after(time.perf_counter() - t0)
    setup_s = time.perf_counter() - _T0 - warmup.spent
    result = {
        "setup_s": setup_s,
        "setup_factor": warmup.overall(),
        "import_s": _IMPORT_S,
        "warmup_failures": failures,
    }
    if not setup_only:
        if tracer:
            tracer.reset()
        samples = []  # [op index, seconds, ok]
        timed = calibrate.Calibrator()
        rounds = 0
        start = time.perf_counter()
        while True:
            for i, (call, serialize) in enumerate(calls):
                t0 = time.perf_counter()
                try:
                    value = call()
                    ok = True
                except KnotObsError as exc:
                    t1 = time.perf_counter()
                    failures[i] = f"{type(exc).__name__}: {exc}"
                    ok = False
                else:
                    t1 = time.perf_counter()
                    outputs.add(i, serialize(value))
                samples.append((i, t1 - t0, ok))
                timed.after(t1 - t0)
            rounds += 1
            elapsed = time.perf_counter() - start
            if rounds >= min_rounds and elapsed * (rounds + 1) / rounds > seconds:
                break
        result.update(factors=timed.factors(), samples=samples, rounds=rounds, failures=failures, outputs=outputs.kept)
        if tracer:
            result["stats"] = tracer.stats
            result["spans"] = tracer.spans
    with open("/proc/self/status") as fh:
        result["peak_rss_kb"] = int(next(line.split()[1] for line in fh if line.startswith("VmHWM")))
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    a = sys.argv[1:]
    sys.exit(main(a[0], a[1], float(a[2]), int(a[3]), a[4] == "1", a[5] == "1"))
