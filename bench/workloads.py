"""The benchmark's three workloads: inputs, operations and output checks.

A workload is built from the loaded kstab package and a workload seed.  Its
`ops` is the fixed list of operations that every round of the run replays,
so the share of failed operations does not depend on how many rounds a run
makes.  Each operation is timed alone; its output is checked after the
round, outside the timed region.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

import oracles

SAMPLES = 100_000  # the CLI's default sample count


@dataclass
class Op:
    """One timed call into kstab plus its untimed output check.

    run() returns the output; check(output) returns the list of failed
    output checks.  fault(output) names a failure the program itself
    reports (a nonzero CLI exit), or None.
    """

    name: str
    run: Callable[[], object]
    check: Callable[[object], list[str]]
    fault: Callable[[object], str | None] = field(default=lambda out: None)


def reset_caches(ks) -> None:
    """Empty kstab's function caches, as a fresh `kstab` process has them."""
    for name, module in list(sys.modules.items()):
        if name == ks.__name__ or name.startswith(ks.__name__ + "."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def _configs_dir(ks) -> Path:
    return Path(ks.__file__).parent / "configs"


# -- exact_ladder ----------------------------------------------------------------

CHOW_LEVELS = tuple(range(1, 6))
# In P^4 the Chow ladder at r = 4, 5 climbs to levels that cost 4-5 s an
# operation (P^4 takes 6 s with r up to 5, 0.85 s with r up to 3); a round
# of such operations is too long to repeat often within one run.
CHOW_LEVELS_P4 = (1, 2, 3)
SPECTRUM_LEVELS = list(range(1, 9))
ROADMAP_WEIGHTS = (0, 1, 1, 2, 3)
COMPANIONS = ("conic", "quadric_surface", "fermat_cubic", "two_quadrics")  # given companion checks

P2, P3, P4 = ("x", "y", "z"), ("x", "y", "z", "w"), ("x", "y", "z", "w", "v")
QUADRICS = ("x^2 + y^2 + z^2 + w^2 + v^2", "x^2 + 2*y^2 + 3*z^2 + 4*w^2 + 5*v^2")

# family -> (variables, generators, generator degrees)
FAMILIES = {
    "P2": (P2, (), ()),
    "P3": (P3, (), ()),
    "P4": (P4, (), ()),
    "conic": (P2, ("x*z - y^2",), (2,)),
    "quadric_surface": (P3, ("x*w - y*z",), (2,)),
    "fermat_cubic": (P3, ("x^3 + y^3 + z^3 + w^3",), (3,)),
    "two_quadrics": (P4, QUADRICS, (2, 2)),
}
# Families whose generators are symmetric in the variables take a seeded
# permutation of fixed weights, so their work and memory are the same for
# every seed: on P^4 other weight sets differ by up to 5% in peak memory.
PERMUTED = {
    "P2": (-3, 1, 4),
    "P3": (-3, -1, 2, 4),
    "P4": (-4, -1, 0, 2, 3),
    "fermat_cubic": (-4, -1, 2, 3),
}
# Operations per family in one round.  Two cheap operations (~0.03 s) and
# the quadric surface (~0.3 s) lie below four cubic and P^3 operations
# (~0.4 s), and the two quadrics (~0.5 s) and P^4 (~0.85 s) above them, so
# the median operation falls in the cubic and P^3 block, not in a gap.
PER_ROUND = {"P2": 1, "P3": 2, "P4": 1, "conic": 1, "quadric_surface": 1,
             "fermat_cubic": 2, "two_quadrics": 1}


class ExactLadder:
    """Seeded configurations through the exact route only.

    The run draws one list of configurations from the workload seed and
    replays it in every round; kstab's caches are emptied before every
    operation, so a replayed configuration is computed afresh.  P^n and the
    Fermat cubic take seeded permutations of fixed weights (PERMUTED).  The
    conic and the quadric surface take distinct integers in [-4, 4] that
    also give the terms of each generator distinct weights: a tie changes
    the initial ideal's structure and the work (the quadric surface with
    (2,4,-4,-2) weighs xw and yz alike and runs 4x faster), so seeds would
    not compare.  The two-quadric operation always takes ROADMAP's weights
    (0,1,1,2,3).  Configurations in P^4 sweep the Chow ladder over
    CHOW_LEVELS_P4 only.  The companion checks (shifted and scaled weights)
    run once a run, on the first operation of every family with
    generators.  On P^n the closed forms already fix F_1, n2_sq and mu.
    """

    name = "exact_ladder"

    def __init__(self, ks, seed: int):
        self.ks = ks
        rng = random.Random(seed)
        self.companions_checked: set[str] = set()
        self.ops = []
        for family, count in PER_ROUND.items():
            variables, generators, degrees = FAMILIES[family]
            drawn: list[tuple[int, ...]] = []
            while len(drawn) < count:
                if family == "two_quadrics":
                    weights = ROADMAP_WEIGHTS
                elif family in PERMUTED:
                    weights = tuple(rng.sample(PERMUTED[family], len(variables)))
                    if weights in drawn:
                        continue
                else:
                    weights = tuple(rng.sample(range(-4, 5), len(variables)))
                    if weights in drawn or not self._generic(variables, generators, weights):
                        continue
                drawn.append(weights)
            for j, weights in enumerate(drawn):
                companions = None
                if j == 0 and family in COMPANIONS:
                    companions = (rng.randint(1, 3), rng.randint(2, 3))
                self.ops.append(self._op(family, j, weights, companions))

    def _generic(self, variables, generators, weights) -> bool:
        """True if the terms of every generator get distinct weights."""
        config = self.ks.TestConfiguration.from_strings("draw", variables, weights, generators)
        for g in config.generators:
            term_weights = [sum(w * e for w, e in zip(weights, expo)) for expo in g.terms]
            if len(set(term_weights)) != len(term_weights):
                return False
        return True

    def _op(self, family, j, weights, companions) -> Op:
        variables, generators, degrees = FAMILIES[family]
        name = f"{family}_{j}"

        def run():
            return self._exact(variables, generators, weights, name)

        def check(out):
            return self._check(out, variables, generators, degrees, weights, name, companions)

        return Op(f"{family}{list(weights)}", run, check)

    def warmup(self) -> None:
        self._exact(("x", "y"), (), (0, 1), "warmup_p1")

    def _exact(self, variables, generators, weights, name):
        ks = self.ks
        config = ks.TestConfiguration.from_strings(name, variables, weights, generators)
        report = ks.fit_asymptotics(config)
        sweep = ks.chow_sweep(config, CHOW_LEVELS if len(variables) < 5 else CHOW_LEVELS_P4, report)
        table = ks.spectrum_table(config, SPECTRUM_LEVELS)
        return report, sweep, table

    def _check(self, out, variables, generators, degrees, weights, name, companions):
        report, sweep, table = out
        errors = []
        ambient = len(variables) - 1
        hilbert = oracles.koszul_hilbert(ambient, degrees)
        if tuple(report.hilbert_coeffs) != hilbert:
            errors.append(f"Hilbert polynomial {report.hilbert_coeffs} != Koszul {hilbert}")
        if report.n != ambient - len(degrees):
            errors.append(f"dimension {report.n} != {ambient - len(degrees)}")
        if report.degree_volume != math.prod(degrees):
            errors.append(f"degree {report.degree_volume} != {math.prod(degrees)}")
        for sl in table:
            expected = sum(c * sl.k**i for i, c in enumerate(hilbert))
            if sl.dim != expected:
                errors.append(f"d_{sl.k} = {sl.dim} != Koszul {expected}")
        if not generators:
            closed = oracles.projective_space_invariants(weights)
            for key, value in closed.items():
                if getattr(report, key) != value:
                    errors.append(f"P^{ambient} {key} = {getattr(report, key)} != {value}")
            for sl in table:
                if sl.total_weight != sl.k * sl.dim * closed["F_0"]:
                    errors.append(f"P^{ambient} w({sl.k}) != k d_k mean(eta)")
            # w(k) = k d_k mean(eta) makes the Chow ladder vanish identically
            if any(rep.mu != 0 for rep in sweep.reports):
                errors.append(f"P^{ambient} Chow weights {[r.mu for r in sweep.reports]} != 0")
        elif companions and name not in self.companions_checked:
            self.companions_checked.add(name)
            errors += self._companion_checks(
                report, sweep, variables, generators, weights, name, *companions
            )
        return errors

    def _companion_checks(self, report, sweep, variables, generators, weights, name, shift, scale):
        """eta + c (F_1, n2_sq, mu unchanged) and c eta (scaled by c, c^2, c)."""
        errors = []
        mu = [rep.mu for rep in sweep.reports]
        reset_caches(self.ks)
        shifted, s_sweep, _ = self._exact(
            variables, generators, tuple(w + shift for w in weights), name + "_shift"
        )
        if (shifted.F_1, shifted.n2_sq, [r.mu for r in s_sweep.reports]) != (
            report.F_1, report.n2_sq, mu
        ):
            errors.append(f"F_1, n2_sq or mu moved under eta + {shift}")
        if shifted.F_0 != report.F_0 + shift:
            errors.append(f"F_0 did not shift by {shift}")
        reset_caches(self.ks)
        scaled, c_sweep, _ = self._exact(
            variables, generators, tuple(w * scale for w in weights), name + "_scale"
        )
        if (scaled.F_1, scaled.n2_sq, [r.mu for r in c_sweep.reports]) != (
            report.F_1 * scale, report.n2_sq * scale**2, [m * scale for m in mu]
        ):
            errors.append(f"F_1, n2_sq or mu did not scale under {scale} eta")
        return errors


# -- gram_frames -----------------------------------------------------------------


class GramFrames:
    """Section frames and Monge-Ampere masses on the bundled line and conic.

    Each operation is section_frame followed by ma_mass for one (fiber,
    level, seed); the Monte Carlo seeds are drawn once a run from the
    workload seed and the same operations are replayed in every round.
    """

    name = "gram_frames"
    # Levels per fiber in one round.  Line k=8 and conic k=4 cost about the
    # same (~0.4 s) and run twice, so the median operation falls among them.
    # The conic stops at k=8: its k=16 frame alone takes 2.7 s, as long as
    # the rest of the round.
    PLAN = {"line": (2, 4, 8, 8, 16), "conic": (2, 4, 4, 8)}
    # fiber -> (bundled configuration, closed-form Gram entry, degree of X)
    FIBERS = {
        "line": ("product_p1", oracles.line_gram_entry, 1),
        "conic": ("conic_double_line", oracles.conic_gram_entry, 2),
    }

    def __init__(self, ks, seed: int):
        self.ks = ks
        rng = random.Random(seed)
        self.loaded = {}
        for fiber, (config_name, _, _) in self.FIBERS.items():
            config, charts, _ = ks.cli.load_configuration(_configs_dir(ks) / f"{config_name}.json")
            self.loaded[fiber] = (config, charts, ks.fit_asymptotics(config))
        self.ops = [
            self._op(fiber, k, rng.randrange(10**6))
            for fiber, levels in self.PLAN.items() for k in levels
        ]

    def warmup(self) -> None:
        config, charts, report = self.loaded["line"]
        frame = self.ks.section_frame(config, charts, 3, 8192, 10**6)
        self.ks.ma_mass(config, charts, frame, report, 8192, 10**6)

    def _op(self, fiber: str, k: int, seed: int) -> Op:
        config, charts, report = self.loaded[fiber]

        def run():
            frame = self.ks.section_frame(config, charts, k, SAMPLES, seed)
            energy = self.ks.ma_mass(config, charts, frame, report, SAMPLES, seed)
            return frame, energy

        return Op(f"{fiber}:k={k}:seed={seed}", run, lambda out: self._check(out, fiber, k))

    def _check(self, out, fiber, k) -> list[str]:
        frame, energy = out
        _, entry, degree = self.FIBERS[fiber]
        errors = []
        mc = frame.gram_mc
        dof = mc.n_samples // mc.batch_size - 1
        expo = [tuple(int(e) for e in row) for row in frame.exponents]
        expected = np.array([[entry(a, b, k) for b in expo] for a in expo])
        worst, allowed = oracles.gram_deviation(frame.gram, np.asarray(mc.stderr), expected, dof)
        if worst > allowed:
            errors.append(f"Gram entry off by {worst:.1f} stderr (allowed {allowed:.1f})")
        M, G = frame.matrix, frame.gram
        residual = float(np.max(np.abs(M @ G @ M.conj().T - np.eye(len(expo)))))
        rounding = 100 * len(expo) * np.finfo(float).eps * np.linalg.cond(G)
        if residual > rounding:
            errors.append(f"|M G M* - I| = {residual:.2e} > {rounding:.2e}")
        moment = energy.moment_mc
        trace = float(np.trace(np.asarray(moment.value)).real)
        # sd of a sum is at most the sum of the sds, whatever the correlation
        trace_err = float(np.sum(np.diag(np.asarray(moment.stderr))))
        allowed_trace = oracles.mc_threshold(1, dof) * trace_err
        if abs(trace - k * degree) > allowed_trace:
            errors.append(f"moment trace {trace:.5f} vs k deg X = {k * degree} (allowed {allowed_trace:.2e})")
        return errors


# -- cli_report ------------------------------------------------------------------


class CliReport:
    """`kstab report CONFIG --seed s --out DIR` through kstab.cli.main.

    One report per bundled configuration, each with a fixed Monte Carlo
    seed: whether a report exits 3 depends on its seed (see README), so
    seeds drawn from the workload seed would change the failed share from
    run to run.  The seeds are chosen so that each fault shows alone: the
    consistency gate on the double line (seed 0, the CLI default: moment
    matrix and ray Gram) and on trivial_p1 (seed 0: moment matrix), the
    mass check on product_p1 (seed 1), and conic_two_lines (seed 1) passes.
    The workload seed orders the operations, once a run, and every round
    replays that order.  Every later report of an operation must be byte
    for byte the first one.
    """

    name = "cli_report"
    # configuration -> Monte Carlo seed of its report
    PLAN = {
        "conic_double_line": 0,
        "conic_two_lines": 1,
        "product_p1": 1,
        "trivial_p1": 0,
    }

    out_dir: Path  # set by the runner before warmup() and emptied before each round

    def __init__(self, ks, seed: int):
        self.ks = ks
        plan = list(self.PLAN.items())
        random.Random(seed).shuffle(plan)
        self.first: dict[int, bytes] = {}  # operation -> bytes of its first report
        self.ops = [self._op(config, s, j) for j, (config, s) in enumerate(plan)]

    def warmup(self) -> None:
        self._report(_configs_dir(self.ks) / "trivial_p1.json", 2, self.out_dir / "warmup",
                     ["--samples", "8192"])

    def _report(self, path: Path, seed: int, out: Path, extra: list[str]) -> int:
        argv = ["report", str(path), "--seed", str(seed), "--out", str(out), *extra]
        with contextlib.redirect_stdout(io.StringIO()):
            return self.ks.cli.main(argv)

    def _op(self, config: str, seed: int, j: int) -> Op:
        path = _configs_dir(self.ks) / f"{config}.json"

        def run():
            return self._report(path, seed, self.out_dir / f"op{j}", [])

        def check(code):
            return self._check(config, self.out_dir / f"op{j}", j)

        def fault(code):
            report = self.out_dir / f"op{j}" / f"{config}_report.json"
            return None if code == 0 else f"exit {code}: " + _failed_gates(report)

        return Op(f"{config}:seed={seed}", run, check, fault)

    def _check(self, config: str, out: Path, j: int) -> list[str]:
        raw = (out / f"{config}_report.json").read_bytes()
        if raw != self.first.setdefault(j, raw):
            return ["repeated (config, seed) report is not byte-identical"]
        payload = json.loads(raw)
        closed = oracles.BUNDLED[config]
        errors = []
        fut = payload["futaki"]
        n = closed["n"]
        got = {
            "initial_leads": payload["flat_limit"]["initial_leads"],
            "n": fut["n"],
            "hilbert": tuple(Fraction(c) for c in fut["hilbert_coeffs"]),
            "weight": tuple(Fraction(c) for c in fut["weight_coeffs"]),
            **{key: Fraction(fut[key]) for key in ("F_0", "F_1", "n2_sq", "Lambda")},
        }
        for key, value in got.items():
            if value != closed[key]:
                errors.append(f"{key} = {value} != closed form {closed[key]}")
        degree = math.factorial(n) * closed["hilbert"][n]
        if Fraction(fut["degree"]) != degree:
            errors.append(f"degree {fut['degree']} != {degree}")
        for row in payload["chow"]["rows"]:
            mu = oracles.chow_weight(closed["hilbert"], closed["weight"], row["r"])
            if Fraction(row["mu"]) != mu:
                errors.append(f"mu_{row['r']} = {row['mu']} != {mu}")
        n2 = payload["n2"]
        if Fraction(n2["exact_n2_sq"]) != closed["n2_sq"]:
            errors.append("exact n2 differs from the closed form")
        exact = float(closed["n2_sq"])
        tol = 0.02  # the CLI's default --tol-n2
        dev = abs(n2["numeric_n2_sq"] - exact) / (exact if exact else 1.0)
        if dev > tol:
            errors.append(f"numeric n2 {n2['numeric_n2_sq']:.5f} off closed form by {dev:.3f} > {tol}")
        return errors


def _failed_gates(report_path: Path) -> str:
    """Names of the report's gates that failed, as read from its JSON."""
    try:
        payload = json.loads(report_path.read_text())
    except (OSError, ValueError):
        return "no readable report"
    gates = []
    mass = payload.get("mass", {})
    bad = [row["k"] for row in mass.get("rows", []) if not row["consistency_ok"]]
    if bad:
        gates.append(f"consistency gate (moment k={bad})")
    if any(row["mass"] < -5 * row["mass_stderr"] for row in mass.get("rows", [])):
        gates.append("negative mass")
    if mass and not mass["bounded_ok"]:
        gates.append("mass check bounded_ok")
    ray = payload.get("ray", {})
    if ray and not ray["gram_consistency_ok"]:
        gates.append("consistency gate (ray Gram)")
    for key in ("slope_check", "convexity_check"):
        if ray and not ray[key]["ok"]:
            gates.append(f"ray {key}")
    if payload.get("n2") and not payload["n2"]["pass"]:
        gates.append("n2")
    return ", ".join(gates) or "no gate named"


WORKLOADS = {cls.name: cls for cls in (ExactLadder, GramFrames, CliReport)}
