"""Command-line entry point: JSON I/O, deterministic seeded generation, and
batch reports over the library's checks.

Exit codes: 0 when every check in the report passes, 1 when some check
fails, 2 on malformed input, 3 on an internal invariant violation.  Reports
are pure functions of the echoed config (seed included), serialized with
sorted keys so identical configs reproduce bit-identical bytes.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field

from . import dgalg, hilbtan, luna, stability
from .errors import InternalCheckError
from .exactalg import Scalar
from .koszul import koszul, massey_vanishing_report, verify_product_table
from .potential import FramedRep, eval_potential, gradient, hessian
from .quiver import PolystableData, destabilizing_subvector_scan, ext_quiver
from .rng import SplitMix64, random_matrix
from .superpotential import (
    extract_superpotential,
    sanity_j_plus_l,
    verify_trace_identity,
    vertex_j_values,
)

SCHEMA = "critloci-report/1"


@dataclass
class RunConfig:
    subcommand: str
    action: str
    inputs: dict = field(default_factory=dict)
    seed: int = 0
    trials: int = 20
    out: str | None = None
    json_stdout: bool = False

    def echo(self) -> dict:
        return {
            "subcommand": self.subcommand,
            "action": self.action,
            "inputs": dict(sorted(self.inputs.items())),
            "seed": self.seed,
            "trials": self.trials,
        }


def random_rep(n: int, r: int, seed: int, bound: int) -> FramedRep:
    """Deterministic framed representation with integer parts in [-bound, bound].

    Draw order is fixed (A, B, C, then the framing block, each row-major), so
    a seed pins the result bit for bit.
    """
    if bound < 1:
        raise ValueError("bound must be at least 1")
    rng = SplitMix64(seed)
    a = random_matrix(rng, n, n, bound)
    b = random_matrix(rng, n, n, bound)
    c = random_matrix(rng, n, n, bound)
    v = random_matrix(rng, n, r, bound)
    return FramedRep(n, r, a, b, c, v)


class InputError(ValueError):
    pass


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read JSON from {path}: {exc}") from exc


def _load_rep(path: str) -> FramedRep:
    data = _load_json(path)
    try:
        return FramedRep.from_json(data)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed framed representation in {path}: {exc}") from exc


def _load_polystable(path: str) -> PolystableData:
    data = _load_json(path)
    try:
        return PolystableData.from_json(data)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed polystable data in {path}: {exc}") from exc


def _parse_point(text: str):
    parts = text.split(",")
    if len(parts) != 3:
        raise InputError("a point needs exactly three comma-separated coordinates")
    try:
        return tuple(Scalar.parse(p) for p in parts)
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def _parse_mults(text: str):
    try:
        mults = tuple(int(p) for p in text.split(","))
    except ValueError as exc:
        raise InputError(f"bad multiplicity list {text!r}") from exc
    if not mults or any(m < 1 for m in mults):
        raise InputError("multiplicities must be positive integers")
    return mults


def _check(name: str, ok: bool, **details) -> dict:
    entry = {"name": name, "ok": bool(ok)}
    entry.update(details)
    return entry


# -- subcommand handlers -------------------------------------------------


def _run_potential(config: RunConfig) -> list:
    rep = _load_rep(config.inputs["rep"])
    action = config.action
    if action == "eval":
        return [_check("eval", True, value=eval_potential(rep).to_json())]
    if action == "grad":
        g = gradient(rep)
        return [
            _check(
                "grad",
                True,
                G_A=g.G_A.to_json(),
                G_B=g.G_B.to_json(),
                G_C=g.G_C.to_json(),
                vanishes=g.is_zero(),
            )
        ]
    if action == "hess":
        form = hessian(rep)
        n, r = rep.n, rep.r
        v_block_radical = all(
            form.in_radical(
                tuple(
                    Scalar(1) if t == 3 * n * n + s else Scalar(0)
                    for t in range(form.dim)
                )
            )
            for s in range(r * n)
        )
        return [
            _check(
                "hess",
                v_block_radical,
                dim=form.dim,
                rank=form.rank(),
                framing_block_in_radical=v_block_radical,
            )
        ]
    raise InputError(f"unknown potential action {action!r}")


def _run_stability(config: RunConfig) -> list:
    rep = _load_rep(config.inputs["rep"])
    report = stability.quot_point_check(rep)
    return [_check("quot_point_check", True, **report)]


def _run_luna(config: RunConfig) -> list:
    data = _load_polystable(config.inputs["data"])
    try:
        point = luna.SlicePoint.from_data(data)
        dec = luna.slice_decomposition(point)
        nondeg = luna.slice_hessian_nondegenerate(point, dec)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    return [
        _check(
            "slice_decomposition",
            True,
            dims=list(dec.dims),
            total=3 * point.n * point.n,
        ),
        _check("slice_hessian_nondegenerate", nondeg),
    ]


def _run_koszul(config: RunConfig) -> list:
    point = _parse_point(config.inputs["point"])
    complex_ = koszul(point)
    table = verify_product_table(complex_)
    massey = massey_vanishing_report(complex_)
    return [
        _check("product_table", table["all_ok"], **table),
        _check("massey_vanishing", massey["higher_products_vanish"], **massey),
    ]


def _run_dgalg(config: RunConfig) -> list:
    if config.action == "verify":
        n = int(config.inputs["n"])
        try:
            square_zero = dgalg.verify_delta_squared(n)
            ideal_match = dgalg.h0_ideal_match(n)
        except ValueError as exc:
            raise InputError(str(exc)) from exc
        return [
            _check("delta_squared_zero", square_zero, n=n),
            _check("h0_ideal_match", ideal_match, n=n),
        ]
    if config.action == "ce":
        mults = _parse_mults(config.inputs["mults"])
        try:
            ok = dgalg.ce_ideal_match(mults)
        except ValueError as exc:
            raise InputError(str(exc)) from exc
        return [_check("ce_ideal_match", ok, mults=list(mults))]
    raise InputError(f"unknown dgalg action {config.action!r}")


def _run_hilb(config: RunConfig) -> list:
    n = int(config.inputs["n"])
    try:
        report = hilbtan.compare_tangents(n)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    return [_check("compare_tangents", report["all_equal"], **report)]


def _run_superpot(config: RunConfig) -> list:
    data = _load_polystable(config.inputs["data"])
    pot = extract_superpotential(data)
    j = vertex_j_values(data)[0]
    checks = [_check("extract", True, terms=pot.to_json(), j=j.to_json())]
    if config.inputs.get("verify"):
        identity = verify_trace_identity(data, config.trials, config.seed)
        checks.append(_check("trace_identity", identity["identity_ok"], **identity))
        checks.append(_check("j_plus_l_zero", sanity_j_plus_l(data)))
    return checks


def _run_quiver(config: RunConfig) -> list:
    if config.action == "ext":
        data = _load_polystable(config.inputs["data"])
        loops = ext_quiver(data)
        return [
            _check(
                "ext_quiver",
                len(loops.edges) == 3 * data.k,
                quiver=loops.to_json(),
            )
        ]
    mults = _parse_mults(config.inputs["mults"])
    report = destabilizing_subvector_scan(mults)
    return [_check("destabilizing_scan", report["implication_holds"], **report)]


_HANDLERS = {
    "potential": _run_potential,
    "stability": _run_stability,
    "luna": _run_luna,
    "koszul": _run_koszul,
    "dgalg": _run_dgalg,
    "hilb": _run_hilb,
    "superpot": _run_superpot,
    "quiver": _run_quiver,
}


def run(config: RunConfig) -> tuple:
    """Execute a config; returns (exit_code, report dict)."""
    try:
        checks = _HANDLERS[config.subcommand](config)
    except InputError as exc:
        report = {"schema": SCHEMA, "config": config.echo(), "error": str(exc)}
        return 2, report
    except InternalCheckError as exc:
        report = {"schema": SCHEMA, "config": config.echo(), "error": str(exc)}
        return 3, report
    ok = all(c["ok"] for c in checks)
    report = {
        "schema": SCHEMA,
        "config": config.echo(),
        "checks": checks,
        "ok": ok,
    }
    return (0 if ok else 1), report


def render_report(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def _build_parser() -> argparse.ArgumentParser:
    # SUPPRESS keeps a subparser from clobbering values parsed before the
    # subcommand; defaults are applied in config_from_args instead
    common = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    common.add_argument("--seed", type=int, help="seed for all random draws (default 0)")
    common.add_argument(
        "--trials", type=int, help="random trials per check (default 20)"
    )
    common.add_argument("--out", help="write the JSON report to this path")
    common.add_argument(
        "--json",
        action="store_true",
        help="print the full JSON report to stdout",
    )
    parser = argparse.ArgumentParser(
        prog="critloci",
        description="exact checks around critical loci of matrix trace potentials",
        parents=[common],
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser(
        "potential", parents=[common], help="evaluate the trace potential and its calculus"
    )
    p.add_argument("action", choices=["eval", "grad", "hess"])
    p.add_argument("--rep", required=True, help="framed representation JSON file")

    p = sub.add_parser("stability", parents=[common], help="cyclic-generation stability checks")
    p.add_argument("action", choices=["check"])
    p.add_argument("--rep", required=True)

    p = sub.add_parser("luna", parents=[common], help="slice splitting at a polystable point")
    p.add_argument("action", choices=["decompose"])
    p.add_argument("--data", required=True, help="polystable configuration JSON file")

    p = sub.add_parser("koszul", parents=[common], help="hat-element table and cohomology checks")
    p.add_argument("action", choices=["table"])
    p.add_argument("--point", required=True, help='point "a,b,c" with rational parts')

    p = sub.add_parser("dgalg", parents=[common], help="matrix dg-algebra well-definedness")
    p.add_argument("action", choices=["verify", "ce"])
    p.add_argument("--n", type=int)
    p.add_argument("--mults")

    p = sub.add_parser("hilb", parents=[common], help="tangent-dimension comparison sweep")
    p.add_argument("action", choices=["compare"])
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("superpot", parents=[common], help="superpotential extraction")
    p.add_argument("action", choices=["extract"])
    p.add_argument("--data", required=True)
    p.add_argument("--verify", action="store_true")

    p = sub.add_parser(
        "quiver", parents=[common], help="framed slope arithmetic and loop quivers"
    )
    p.add_argument("action", choices=["scan", "ext"])
    p.add_argument("--mults")
    p.add_argument("--data")

    return parser


def config_from_args(args) -> RunConfig:
    inputs = {}
    for key in ("rep", "data", "point", "mults"):
        value = getattr(args, key, None)
        if value is not None:
            inputs[key] = value
    if getattr(args, "n", None) is not None:
        inputs["n"] = args.n
    if getattr(args, "verify", False):
        inputs["verify"] = True
    return RunConfig(
        subcommand=args.subcommand,
        action=args.action,
        inputs=inputs,
        seed=getattr(args, "seed", 0),
        trials=getattr(args, "trials", 20),
        out=getattr(args, "out", None),
        json_stdout=getattr(args, "json", False),
    )


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on bad usage, matching the input-error contract
        return int(exc.code or 0)
    config = config_from_args(args)
    required = {
        ("dgalg", "verify"): "n",
        ("dgalg", "ce"): "mults",
        ("quiver", "scan"): "mults",
        ("quiver", "ext"): "data",
    }
    needed = required.get((config.subcommand, config.action))
    if needed and needed not in config.inputs:
        print(f"{config.subcommand} {config.action} needs --{needed}", file=sys.stderr)
        return 2
    code, report = run(config)
    text = render_report(report)
    if config.out:
        with open(config.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    if config.json_stdout or "error" in report:
        sys.stdout.write(text)
    else:
        for check in report.get("checks", []):
            status = "ok" if check["ok"] else "FAIL"
            print(f"{status:4s} {config.subcommand} {check['name']}")
        print(f"report ok={report['ok']}")
    return code


if __name__ == "__main__":
    sys.exit(main())
