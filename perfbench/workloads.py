"""The three workloads: seeded inputs, one verdict per input, and the checks
that hold each verdict to the committed expected answers.

Every workload draws from a fixed pool of inputs whose expected answers are
committed under ``expected/``.  The workload seed only chooses and orders pool
items, so every seed runs inputs with a known answer.  Inputs are grouped in
rounds whose composition repeats within at most three rounds, which keeps
the mix of cheap and expensive verdicts the same from seed to seed.
Each ``rounds`` docstring says how the mix places the median and the tail
(the 11th slowest verdict) inside a group of verdicts of similar cost, so
that neither sits on the edge between two groups.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

WORK_DIR = Path(".perfbench_work")
EXPECTED_DIR = Path(__file__).resolve().parent / "expected"
POOL = 16  # pool items per input class

REP_CLASSES = ((3, 1), (3, 2), (4, 1), (4, 2))
REP_ACTIONS = (("potential", "eval"), ("potential", "grad"), ("potential", "hess"), ("stability", "check"))
LUNA_SIZES = (4, 5, 6)
SUPERPOT_POINTS = (2, 3, 4)
DGALG_SIZES = (3, 4)
MODULES = ("exactalg", "potential", "stability", "luna", "hilbtan", "koszul",
           "superpotential", "dgalg", "quiver", "rng", "cli")


def import_program() -> SimpleNamespace:
    """A fresh import of critloci (every module executed again)."""
    for name in [n for n in sys.modules if n == "critloci" or n.startswith("critloci.")]:
        del sys.modules[name]
    importlib.import_module("critloci")
    return SimpleNamespace(**{m: importlib.import_module(f"critloci.{m}") for m in MODULES})


@dataclass(frozen=True)
class Item:
    """One input: ``call`` is ("hilb", staircase) or ("cli", calls), where each
    call is (subcommand, action, inputs) and the verdict needs every report."""

    key: str
    call: tuple
    input_sha: str


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _write(workload: str, name: str, payload) -> tuple:
    text = json.dumps(payload, sort_keys=True)
    path = WORK_DIR / workload / f"{name}.json"
    path.write_text(text, encoding="utf-8")
    return path.as_posix(), sha256(text)


def _cli(key, subcommand, action, inputs, input_sha):
    return Item(key, ("cli", ((subcommand, action, inputs),)), input_sha)


def _shuffled(rng: random.Random, count: int) -> list:
    order = list(range(count))
    rng.shuffle(order)
    return order


def _compositions(total: int):
    if total == 0:
        yield ()
        return
    for first in range(1, total + 1):
        for rest in _compositions(total - first):
            yield (first,) + rest


# -- Gaussian-rational points -------------------------------------------


def _rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2)))


def _coordinate(rng: random.Random) -> tuple:
    re = _rational(rng)
    im = _rational(rng) if rng.random() < 0.5 else Fraction(0)
    return re, im


def _coordinate_json(c: tuple):
    re, im = c
    return str(re) if im == 0 else {"re": str(re), "im": str(im)}


def _coordinate_text(c: tuple) -> str:
    """The CLI's --point spelling, e.g. "1/2", "3i", "-1+1/2i"."""
    re, im = c
    if im == 0:
        return str(re)
    if re == 0:
        return f"{im}i"
    return f"{re}{'+' if im > 0 else '-'}{abs(im)}i"


def _distinct_points(rng: random.Random, k: int) -> list:
    points: list = []
    while len(points) < k:
        point = tuple(_coordinate(rng) for _ in range(3))
        if point not in points:
            points.append(point)
    return points


def _polystable(points, mults) -> dict:
    return {"points": [[_coordinate_json(c) for c in p] for p in points], "mults": list(mults)}


# -- workloads ------------------------------------------------------------


class Hilb:
    """Monomial ideals of sizes 5 and 6: hom_dim and hessian_tangent_dim."""

    name = "hilb"
    trace_rounds = 2
    per_round = {5: 1, 6: 3}  # the median and the tail fall among the size-6 ideals
    ideal_counts = {5: 24, 6: 48}

    def pool(self, lib) -> dict:
        items = {}
        for size, count in self.ideal_counts.items():
            ideals = lib.hilbtan.enumerate_monomial_ideals(size)
            if len(ideals) != count:
                raise ValueError(f"{len(ideals)} monomial ideals of size {size}, expected {count}")
            for j, ideal in enumerate(ideals):
                staircase = ideal.to_json()
                key = f"ideal{size}-{j:02d}"
                items[key] = Item(key, ("hilb", staircase), sha256(json.dumps(staircase)))
        return items

    def rounds(self, seed: int):
        rng = random.Random(seed)
        orders = {}
        for size, count in self.ideal_counts.items():
            keys = [f"ideal{size}-{j:02d}" for j in range(count)]
            rng.shuffle(keys)
            orders[size] = keys
        i = 0
        while True:
            yield [
                orders[size][(i * per + t) % len(orders[size])]
                for size, per in self.per_round.items()
                for t in range(per)
            ]
            i += 1


class Gaussian:
    """Dense Gaussian-rational elimination: framed reps and Luna slices."""

    name = "gaussian"
    trace_rounds = 1

    def pool(self, lib) -> dict:
        (WORK_DIR / self.name).mkdir(parents=True, exist_ok=True)
        items = {}
        for n, r in REP_CLASSES:
            for j in range(POOL):
                base = f"rep-n{n}-r{r}-{j:02d}"
                rep = lib.cli.random_rep(n, r, j, 3)
                path, digest = _write(self.name, base, rep.to_json())
                calls = tuple((sub, action, {"rep": path}) for sub, action in REP_ACTIONS)
                items[base] = Item(base, ("cli", calls), digest)
        for n in LUNA_SIZES:
            for j in range(POOL):
                rng = random.Random(1000 * n + j)
                k = rng.choice((3, 4))
                cuts = sorted(rng.sample(range(1, n), k - 1))
                mults = [b - a for a, b in zip([0] + cuts, cuts + [n])]
                payload = _polystable(_distinct_points(rng, k), mults)
                key = f"luna-n{n}-{j:02d}"
                path, digest = _write(self.name, key, payload)
                items[key] = _cli(key, "luna", "decompose", {"data": path}, digest)
        return items

    def rounds(self, seed: int):
        """Five reps of each n = 3 class, two of each n = 4 class, and one Luna
        configuration, its size cycling through 4, 5, 6.

        A rep is one input whose verdict needs all four reports.  The n = 3
        reps (about 0.3 s) are 10 of 15 inputs and hold the median; the
        n = 4 reps (about 2 s) are four per round, so for 3 rounds or more
        the tail (11th slowest) falls among them, under the n = 6 Luna
        configurations (about 3 s) at the top.
        """
        rng = random.Random(seed)
        reps = {c: _shuffled(rng, POOL) for c in REP_CLASSES}
        lunas = {n: _shuffled(rng, POOL) for n in LUNA_SIZES}
        per_round = {3: 5, 4: 2}
        i = 0
        while True:
            batch = []
            for n, r in REP_CLASSES:
                count = per_round[n]
                batch.extend(
                    f"rep-n{n}-r{r}-{reps[n, r][(count * i + t) % POOL]:02d}" for t in range(count)
                )
            n = LUNA_SIZES[i % len(LUNA_SIZES)]
            batch.append(f"luna-n{n}-{lunas[n][(i // len(LUNA_SIZES)) % POOL]:02d}")
            yield batch
            i += 1


class Algebra:
    """Poly-heavy work: superpotentials, Koszul tables, matrix dg-algebras."""

    name = "algebra"
    trace_rounds = 1
    ce_lists = [c for total in range(1, 5) for c in _compositions(total)]

    def pool(self, lib) -> dict:
        (WORK_DIR / self.name).mkdir(parents=True, exist_ok=True)
        items = {}
        for k in SUPERPOT_POINTS:
            for j in range(POOL):
                rng = random.Random(2000 * k + j)
                points = _distinct_points(rng, k)
                mults = [rng.choice((1, 2)) for _ in range(k)]
                base = f"ps-k{k}-{j:02d}"
                path, digest = _write(self.name, base, _polystable(points, mults))
                key = f"{base}/superpot"
                items[key] = _cli(
                    key, "superpot", "extract", {"data": path, "verify": True}, digest
                )
                for t, point in enumerate(points):
                    text = ",".join(_coordinate_text(c) for c in point)
                    key = f"{base}/koszul{t}"
                    items[key] = _cli(key, "koszul", "table", {"point": text}, sha256(text))
        for n in DGALG_SIZES:
            key = f"dgalg-verify-n{n}"
            items[key] = _cli(key, "dgalg", "verify", {"n": n}, sha256(str(n)))
        for mults in self.ce_lists:
            text = ",".join(map(str, mults))
            key = f"ce-{text}"
            items[key] = _cli(key, "dgalg", "ce", {"mults": text}, sha256(text))
        return items

    def rounds(self, seed: int):
        """Two 4-point configurations, one of 2 or 3 points (alternating), the
        Koszul table at every point, dgalg verify at n = 3 or 4 (alternating)
        and one ce list.

        The 4-point superpotentials (about 1.1 s) outnumber the rounds two to
        one, so the tail (11th slowest) stays among them; the Koszul tables
        (about 30 ms each) are two thirds of the verdicts and hold the median.
        """
        rng = random.Random(seed)
        configs = {k: _shuffled(rng, POOL) for k in SUPERPOT_POINTS}
        ce_order = [",".join(map(str, c)) for c in self.ce_lists]
        rng.shuffle(ce_order)
        i = 0
        while True:
            chosen = [(4, configs[4][(2 * i + t) % POOL]) for t in range(2)]
            small = 2 if i % 2 == 0 else 3
            chosen.append((small, configs[small][(i // 2) % POOL]))
            batch = []
            for k, j in chosen:
                base = f"ps-k{k}-{j:02d}"
                batch.append(f"{base}/superpot")
                batch.extend(f"{base}/koszul{t}" for t in range(k))
            batch.append(f"dgalg-verify-n{DGALG_SIZES[i % 2]}")
            batch.append(f"ce-{ce_order[i % len(ce_order)]}")
            yield batch
            i += 1


WORKLOADS = {w.name: w for w in (Hilb(), Gaussian(), Algebra())}


# -- verdicts -----------------------------------------------------------


def run_item(lib, item: Item) -> tuple:
    """The program's verdict on one input: (exit code, output text, parsed output)."""
    if item.call[0] == "hilb":
        ideal = lib.hilbtan.MonomialIdeal(frozenset(tuple(c) for c in item.call[1]))
        dims = {
            "hom_dim": lib.hilbtan.hom_dim(ideal),
            "hess_dim": lib.hilbtan.hessian_tangent_dim(ideal),
        }
        return 0, json.dumps(dims, sort_keys=True), dims
    cli = lib.cli
    codes, texts, reports = [], [], []
    for subcommand, action, inputs in item.call[1]:
        code, report = cli.run(cli.RunConfig(subcommand, action, dict(inputs)))
        codes.append(code)
        texts.append(cli.render_report(report))
        reports.append(report)
    return max(codes), "".join(texts), reports


def _mults(path: str) -> list:
    return json.loads(Path(path).read_text(encoding="utf-8"))["mults"]


def closed_form_problems(item: Item, output) -> list:
    """Cross-checks against closed forms that hold for every pool input."""
    if item.call[0] == "hilb":
        return [] if output["hom_dim"] == output["hess_dim"] else ["hom_dim != hess_dim"]
    problems = []
    for (subcommand, action, inputs), report in zip(item.call[1], output):
        problems += _report_problems(f"{subcommand}.{action}", inputs, report)
    return problems


def _report_problems(kind: str, inputs: dict, report: dict) -> list:
    checks = {c["name"]: c for c in report.get("checks", [])}
    problems = [] if report.get("ok") else [f"{kind} report not ok"]
    if kind == "potential.hess":
        rep = json.loads(Path(inputs["rep"]).read_text(encoding="utf-8"))
        n, r = rep["n"], rep["r"]
        hess = checks["hess"]
        if hess["rank"] != 3 * n * n - 3:
            problems.append(f"rank {hess['rank']} != 3n^2-3")
        if hess["dim"] != 3 * n * n + r * n or not hess["framing_block_in_radical"]:
            problems.append("framing block not in the radical")
    elif kind == "luna.decompose":
        mults = _mults(inputs["data"])
        n, s = sum(mults), sum(m * m for m in mults)
        expected = [3 * s, n * n - s, 2 * (n * n - s)]
        if checks["slice_decomposition"]["dims"] != expected:
            problems.append(f"dims {checks['slice_decomposition']['dims']} != {expected}")
        if not checks["slice_hessian_nondegenerate"]["ok"]:
            problems.append("slice Hessian degenerate")
    elif kind == "superpot.extract":
        k = len(_mults(inputs["data"]))
        extract = checks["extract"]
        if len(extract["terms"]) != 6 * k or extract["j"] != "1":
            problems.append("expected 6 words per summand and j = 1")
        if not (checks["trace_identity"]["identity_ok"] and checks["j_plus_l_zero"]["ok"]):
            problems.append("trace identity or j + l = 0 failed")
    elif kind == "koszul.table":
        if checks["product_table"]["top_constant"] != "1":
            problems.append("top_constant != 1")
        if checks["massey_vanishing"]["ext_dims"] != [1, 3, 3, 1]:
            problems.append("ext dims != (1,3,3,1)")
    return problems


def load_expected(workload: str) -> dict:
    path = EXPECTED_DIR / f"{workload}.json"
    return json.loads(path.read_text(encoding="utf-8"))["items"]


def check(item: Item, expected: dict, code: int, output_sha: str, output) -> list:
    """Why the verdict differs from the committed answer; empty when it matches."""
    want = expected.get(item.key)
    if want is None:
        return ["no expected answer"]
    problems = []
    if want["input_sha"] != item.input_sha:
        problems.append("generated input differs from the recorded one")
    if code != 0:
        problems.append(f"exit code {code}")
    if want["output_sha"] != output_sha:
        problems.append("output bytes differ from the recorded ones")
    return problems + closed_form_problems(item, output)
