"""Closed-loop benchmark of critloci verdicts.

    python3 perfbench/run.py --workload hilb --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  One process, one thread: each input is
handed to the library only after the previous verdict is in, and every
verdict is checked against the committed expected answers.

--trace 0 runs whole rounds of verdicts, with no wrappers installed, until
they add up to --seconds (and at least MIN_ROUNDS rounds), and reports the
end-to-end metrics.  Its times are calibrated seconds (see calibrate.py):
the wall time of each set-up and each verdict, rescaled by the speed the
machine showed around it; the wall times are printed beside them.  --trace 1
runs a fixed number of rounds six times on the same inputs (plain, spans,
counting twice, plain, spans; the counting passes add Scalar operation
counters) and reports the per-layer metrics.  Human-readable lines come
first; the last line is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import calibrate
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SETUPS = 15  # setup_s is the median of this many fresh set-ups
MIN_ROUNDS = 3  # a timed run also lasts at least this many rounds
WALL_CAP = 2  # and stops after this many times --seconds of wall time

END_TO_END = (
    ("setup_s", "s"),
    ("verdicts_per_s", "1/s"),
    ("verdict_p50_s", "s"),
    ("verdict_tail_s", "s"),
    ("verified_share", "ratio"),
    ("peak_rss_mb", "MB"),
)


def _calls_and_self(*names):
    return [(f"{n}.{suffix}", unit) for n in names for suffix, unit in (("calls", "count"), ("self_s", "s"))]


def _self(*names):
    return [(f"{n}.self_s", "s") for n in names]


PER_LAYER = (
    _calls_and_self("potential.hessian")
    + [("potential.gram_nnz", "count"), ("potential.gram_density", "ratio")]
    + _calls_and_self("potential.gauge_directions", "exactalg.apply")
    + [("exactalg.apply.vec_nnz_share", "ratio")]
    + _calls_and_self("exactalg.in_radical", "exactalg.matmul", "exactalg.rank.int")
    + [("exactalg.rank.int.cells", "count")]
    + _calls_and_self("exactalg.rank.field")
    + [
        ("exactalg.rank.field.cells", "count"),
        ("exactalg.rank.int_fallbacks", "count"),
        ("exactalg.rank.int_fast_share", "ratio"),
    ]
    + _calls_and_self("exactalg.kernel_basis")
    + [("exactalg.kernel_basis.cells", "count")]
    + _calls_and_self("exactalg.solve_exact", "exactalg.form_restrict", "exactalg.poly_mul")
    + [("exactalg.poly_mul.term_pairs", "count")]
    + _calls_and_self("exactalg.span_rank")
    + [(f"exactalg.scalar.{op}.count", "count") for op in ("add", "mul", "div")]
    + _self("hilbtan.enumerate_monomial_ideals", "hilbtan.hom_dim", "hilbtan.hessian_tangent_dim")
    + _calls_and_self("stability.krylov_closure")
    + _self("luna.sigma_matrix", "luna.slice_decomposition", "luna.slice_hessian_nondegenerate")
    + _calls_and_self("koszul.hat_elements")
    + [("koszul.dg_product.calls", "count")]
    + _calls_and_self("koszul.m2", "koszul.cyclic_pairing")
    + _self("koszul.verify_product_table", "koszul.massey_vanishing_report")
    + _self(
        "superpotential.extract_superpotential",
        "superpotential.vertex_j_values",
        "superpotential.verify_trace_identity",
    )
    + _self("dgalg.build_q3n", "dgalg.verify_delta_squared", "dgalg.h0_ideal_match", "dgalg.ce_ideal_match")
    + _self("cli.run", "cli.render_report")
    + [("trace.overhead_share", "ratio"), ("trace.quiver_rng_share", "ratio")]
)

# counters that must be nonzero on the workload that exercises their layer;
# the integer elimination on hilb divides no Scalar, so div is required elsewhere
SCALAR = "exactalg.scalar."
REQUIRED = {
    "hilb": (
        "potential.hessian", "potential.gauge_directions", "exactalg.apply",
        "exactalg.in_radical", "exactalg.matmul", "exactalg.rank.int",
        "hilbtan.enumerate_monomial_ideals", "hilbtan.hom_dim", "hilbtan.hessian_tangent_dim",
        f"{SCALAR}add", f"{SCALAR}mul",
    ),
    "gaussian": (
        "exactalg.rank.field", "exactalg.kernel_basis", "exactalg.form_restrict",
        "stability.krylov_closure", "luna.sigma_matrix", "luna.slice_decomposition",
        "luna.slice_hessian_nondegenerate", "cli.run", "cli.render_report",
        f"{SCALAR}add", f"{SCALAR}mul", f"{SCALAR}div",
    ),
    "algebra": (
        "exactalg.poly_mul", "exactalg.span_rank", "exactalg.solve_exact",
        "koszul.hat_elements", "koszul.dg_product", "koszul.m2", "koszul.cyclic_pairing",
        "koszul.verify_product_table", "koszul.massey_vanishing_report",
        "superpotential.extract_superpotential", "superpotential.vertex_j_values",
        "superpotential.verify_trace_identity", "dgalg.build_q3n",
        "dgalg.verify_delta_squared", "dgalg.h0_ideal_match", "dgalg.ce_ideal_match",
        "cli.run", "cli.render_report",
        f"{SCALAR}add", f"{SCALAR}mul", f"{SCALAR}div",
    ),
}
# quiver and rng are left out of the layer metrics; the traced run confirms
# that their self time stays below this share of the traced wall time
NEGLIGIBLE_SHARE = 0.02


def wall_time(call) -> tuple:
    """(result, wall seconds, wall seconds): the uncalibrated twin of Clock.time."""
    start = perf_counter()
    result = call()
    wall = perf_counter() - start
    return result, wall, wall


def _set_up(workload) -> tuple:
    lib = workloads.import_program()
    return lib, workload.pool(lib), workloads.load_expected(workload.name)


def setup(workload, timer=wall_time) -> tuple:
    """Import the program, generate the inputs and load the expected answers:
    (wall seconds, timed seconds, lib, items, expected)."""
    (lib, items, expected), wall, seconds = timer(lambda: _set_up(workload))
    return wall, seconds, lib, items, expected


def _attempt(lib, item) -> tuple:
    try:
        return workloads.run_item(lib, item), None
    except Exception as exc:  # the loop must go on and count the failure
        return None, exc


def verdict(lib, item, expected, timer=wall_time) -> tuple:
    """(wall seconds, timed seconds, output sha, problems) of one verdict;
    a raise is a failed verdict."""
    (result, exc), wall, seconds = timer(lambda: _attempt(lib, item))
    if exc is not None:
        return wall, seconds, None, [f"raised {exc!r}"]
    code, text, output = result
    sha = workloads.sha256(text)
    try:
        problems = workloads.check(item, expected, code, sha, output)
    except Exception as exc:
        problems = [f"check raised {exc!r}"]
    return wall, seconds, sha, problems


def _timings(durations: list) -> tuple:
    """(per second, median, tail): the tail is the 11th largest, the highest
    percentile with ten samples beyond it."""
    ordered = sorted(durations)
    beyond = min(10, len(ordered) - 1)
    return (
        len(ordered) / sum(ordered),
        statistics.median(ordered),
        ordered[len(ordered) - 1 - beyond],
    )


def _timed_loop(workload, seed: int, seconds: float, clock) -> tuple:
    runs = []  # (wall, calibrated) of each set-up; the last one is kept
    for _ in range(SETUPS):
        wall, calibrated, lib, items, expected = setup(workload, clock.time)
        runs.append((wall, calibrated))
    rounds = workload.rounds(seed)
    walls, durations, failures = [], [], []
    start = perf_counter()
    done = 0
    # the budget is in calibrated seconds, so that a fast or slow phase of the
    # machine does not change how many rounds a seed runs
    while done < MIN_ROUNDS or (
        sum(durations) < seconds and perf_counter() - start < WALL_CAP * seconds
    ):
        done += 1
        for key in next(rounds):
            wall, calibrated, _, problems = verdict(lib, items[key], expected, clock.time)
            walls.append(wall)
            durations.append(calibrated)
            if problems:
                failures.append((key, problems))
    return runs, walls, durations, failures, done, perf_counter() - start


def timed_run(workload, seed: int, seconds: float) -> tuple:
    with calibrate.Clock() as clock:
        runs, walls, durations, failures, done, elapsed = _timed_loop(
            workload, seed, seconds, clock
        )
    count = len(durations)
    per_s, p50, tail = _timings(durations)
    wall_per_s, wall_p50, wall_tail = _timings(walls)
    beyond = min(10, count - 1)
    metrics = {
        "setup_s": statistics.median(r[1] for r in runs),
        "verdicts_per_s": per_s,
        "verdict_p50_s": p50,
        "verdict_tail_s": tail,
        "verified_share": 1 - len(failures) / count,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    samples = sorted(clock.samples)
    notes = [
        f"closed loop, 1 client, {count} verdicts in {done} rounds, "
        f"{sum(durations):.2f} calibrated s of verdicts in {elapsed:.2f} s wall",
        f"times in calibrated seconds (one kernel = {calibrate.REFERENCE_S} s); "
        f"{len(samples)} kernel samples, quartiles "
        + ", ".join(f"{q:.6f}" for q in statistics.quantiles(samples, n=4))
        + f" s; sampling took {clock.sampling:.2f} s",
        f"wall less sampling: verdicts_per_s {wall_per_s:.4f}, verdict_p50_s {wall_p50:.4f}, "
        f"verdict_tail_s {wall_tail:.4f}, setup_s {statistics.median(r[0] for r in runs):.4f}",
        f"verdict_tail_s is the p{100 * (count - 1 - beyond) / count:.1f} "
        f"of {count} samples ({beyond} beyond it)",
        f"failed_share = {len(failures) / count}",
        f"setup_s runs (calibrated): {', '.join(f'{r[1]:.4f}' for r in runs)}",
    ]
    return metrics, count, failures, [], notes, END_TO_END


@dataclass
class Pass:
    wall: float
    verdicts: list
    installation: object

    def counts(self) -> dict:
        """Every counter of the pass: span calls, counters and Scalar op counts."""
        tracer = self.installation.tracer
        out = {f"{name}.calls": n for name, n in tracer.calls().items()}
        out.update(tracer.counters)
        out.update(self.installation.scalar_counts())
        return out


def one_pass(workload, lib, keys, expected, mode: str) -> Pass:
    """Generate the inputs and run the verdicts once; mode is plain, spans or counts."""
    installation = None
    if mode != "plain":
        installation = spans.Installation(spans.Tracer(), count_scalars=mode == "counts")
    start = perf_counter()
    try:
        items = workload.pool(lib)
        verdicts = [(key, *verdict(lib, items[key], expected)[2:]) for key in keys]
    finally:
        wall = perf_counter() - start
        if installation is not None:
            installation.remove()
    return Pass(wall, verdicts, installation)


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(traced: Pass, counted: Pass, overhead: float) -> dict:
    tracer = traced.installation.tracer
    c = tracer.counters
    self_s = tracer.self_times()
    values = traced.counts()
    values.update({f"{name}.self_s": t for name, t in self_s.items()})
    values.update(counted.installation.scalar_counts())
    values["potential.gram_density"] = _ratio(c["potential.gram_nnz"], c["potential.gram_cells"])
    values["exactalg.apply.vec_nnz_share"] = _ratio(
        c["exactalg.apply.vec_nnz"], c["exactalg.apply.vec_len"]
    )
    # with no int-entry rank call, no call fell back: the share is 1
    values["exactalg.rank.int_fast_share"] = 1 - _ratio(
        c["exactalg.rank.int_slow"], values.get("exactalg.rank.int.calls", 0)
    )
    values["trace.overhead_share"] = overhead
    negligible = sum(t for name, t in self_s.items() if name.startswith(spans.NEGLIGIBLE))
    values["trace.quiver_rng_share"] = negligible / traced.wall
    return {name: values.get(name, 0) for name, _ in PER_LAYER}


def traced_run(workload, seed: int) -> tuple:
    _, _, lib, _, expected = setup(workload)
    rounds = workload.rounds(seed)
    keys = [key for _ in range(workload.trace_rounds) for key in next(rounds)]
    # plain and span passes alternate, and each side keeps its faster pass,
    # so that a slow phase of the machine is not read as tracing overhead
    order = ("plain", "spans", "counts", "counts", "plain", "spans")
    passes = [(mode, one_pass(workload, lib, keys, expected, mode)) for mode in order]
    plain = min((p for mode, p in passes if mode == "plain"), key=lambda p: p.wall)
    traced = min((p for mode, p in passes if mode == "spans"), key=lambda p: p.wall)
    counted = [p for mode, p in passes if mode == "counts"]

    failures = [(key, problems) for key, _, problems in passes[0][1].verdicts if problems]
    self_check = []
    for i, (mode, run) in enumerate(passes[1:], start=2):
        if run.verdicts != passes[0][1].verdicts:
            self_check.append(f"pass {i} ({mode}) changed a verdict or its report bytes")
        if run.installation is not None and run.installation.stray:
            self_check.append(f"pass {i} ({mode}) left originals bound: {run.installation.stray}")
    first, second = counted[0].counts(), counted[1].counts()
    if first != second:
        diff = sorted(k for k in first.keys() | second.keys() if first.get(k) != second.get(k))
        self_check.append(f"counters did not repeat exactly: {diff}")
    for mode, run in passes:
        if mode == "spans":
            disagree = sorted(
                k for k, v in run.counts().items() if not k.startswith(SCALAR) and first.get(k) != v
            )
            if disagree:
                self_check.append(f"span pass and counting pass disagree on {disagree}")
    for name in REQUIRED[workload.name]:
        key = f"{name}.count" if name.startswith(SCALAR) else f"{name}.calls"
        if not first.get(key):
            self_check.append(f"nothing recorded for {key}")

    metrics = layer_metrics(traced, counted[0], (traced.wall - plain.wall) / plain.wall)
    if metrics["trace.quiver_rng_share"] > NEGLIGIBLE_SHARE:
        self_check.append("quiver and rng are no longer negligible; measure them as layers")
    notes = [
        f"{len(keys)} inputs in {workload.trace_rounds} round(s), passes: "
        + ", ".join(f"{mode} {run.wall:.3f} s" for mode, run in passes),
        f"spans recorded per span pass: {len(traced.installation.tracer.span_name)}",
    ]
    return metrics, len(keys), failures, self_check, notes, PER_LAYER


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "critloci" / "__init__.py").is_file():
        print(f"critloci sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    workload = workloads.WORKLOADS[args.workload]
    try:
        if args.trace:
            run = traced_run(workload, args.seed)
        else:
            run = timed_run(workload, args.seed, args.seconds)
    except Exception:  # set-up failed: no verdict can be checked
        traceback.print_exc()
        return 1
    metrics, attempted, failures, self_check, notes, table = run
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for note in notes:
        print(f"  {note}")
    for key, problems in failures[:20]:
        print(f"  FAILED {key}: {'; '.join(problems)}")
    for problem in self_check:
        print(f"  SELF-CHECK FAILED: {problem}")
    for name, unit in table:
        print(f"  {name} = {metrics[name]} {unit}")
    result = {
        "correct": not failures and not self_check,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in table},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
