"""The benchmark's workloads: seeded rounds of CLI operations, and the checks
of their outputs against the reference checker.

A run executes whole rounds.  Every round of a workload has the same make-up
(the same commands on the same kinds of input), and every input in a run is
distinct, so a cache keyed on input content cannot serve a repeat.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field

import refcheck
from refcheck import Arc

FAMILIES = ("d1", "d2-same", "d2-diff")

#: Message of the one failure the benchmark expects: cycle enumeration under
#: the powerfulness test overflows on the complete order-10 digraph.
CAPACITY_MARKER = "more than 1000000 cycles"


@dataclass
class Op:
    """One CLI call.  ``arcs`` is the input written to the op's file."""

    argv: list[str]
    n: int
    kind: str
    arcs: list[Arc] = field(default_factory=list)
    k: int = 0
    samples: int = 0
    seed: int = 0
    may_fail: bool = False


def _write(workdir: str, r: int, i: int, n: int, arcs: list[Arc]) -> str:
    path = os.path.join(workdir, f"r{r}-{i}.sdg")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(refcheck.sdg_text(n, arcs))
    return path


class Workload:
    name = ""
    #: Percentile reported as ``op_tail_ms``; fixed per workload so that it
    #: lands inside one class of operations of the round's fixed make-up.
    tail_pct = 90.0

    def __init__(self) -> None:
        self.seen: set = set()
        self.memo: dict = {}

    def make_round(self, seed: int, r: int, workdir: str) -> list[Op]:
        raise NotImplementedError

    def check(self, op: Op, out: str) -> str | None:
        """None when ``out`` is right, else what is wrong with it."""
        raise NotImplementedError

    def _fresh(self, key, draw):
        """Draw until the input has not appeared before in this run."""
        value = draw()
        while (key, _freeze(value)) in self.seen:
            value = draw()
        self.seen.add((key, _freeze(value)))
        return value

    def _memo(self, key, compute):
        if key not in self.memo:
            self.memo[key] = compute()
        return self.memo[key]


def _freeze(value):
    return tuple(value) if isinstance(value, list) else value


def _relabeled(rng: random.Random, family: str, n: int) -> list[Arc]:
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    return refcheck.relabel(refcheck.family_arcs(family, n), perm)


class FamilyAnalyze(Workload):
    """``analyze --json`` on vertex relabelings of the extremal families."""

    name = "family-analyze"
    #: (order, relabelings of each family per round)
    MIX = ((9, 1), (10, 2), (11, 1))
    tail_pct = 90.0

    def make_round(self, seed, r, workdir):
        rng = random.Random(f"{self.name}:{seed}:{r}")
        ops = []
        for n, reps in self.MIX:
            for family in FAMILIES:
                for _ in range(reps):
                    arcs = self._fresh(n, lambda: _relabeled(rng, family, n))
                    path = _write(workdir, r, len(ops), n, arcs)
                    ops.append(Op(["analyze", "--json", path], n, family, arcs))
        return ops

    def check(self, op, out):
        n, arcs, family = op.n, op.arcs, op.kind
        doc = json.loads(out)
        if doc["input_digest"] != refcheck.input_digest(n, arcs):
            return "input_digest differs from the sha256 of the canonical text"
        if doc["structure"]["n"] != n or doc["structure"]["arc_count"] != len(arcs):
            return "structure does not describe the input"
        prim = doc["primitivity"]
        if prim["primitive"] is not refcheck.is_primitive(n, arcs):
            return "primitivity disagrees with the BFS test"
        if doc["powerfulness"]["powerful"] is not refcheck.is_powerful(n, arcs):
            return "powerfulness disagrees with the switching test"
        if prim["exponent"] != refcheck.closed_exponent(family, n):
            return f"exponent {prim['exponent']} is not the closed form"
        f_table = [row["value"] for row in doc["exponents"]["table"]]
        if f_table != [refcheck.closed_multiexponent(family, n, k) for k in range(1, n + 1)]:
            return f"F_k table {f_table} is not the closed form"
        table = doc["bases"]["table"]
        values = [row["value"] for row in table]
        if [row["k"] for row in table] != list(range(1, n + 1)):
            return "base table does not list k = 1..n"
        for k, value in enumerate(values, start=1):
            closed = refcheck.closed_upper_base(family, n, k)
            if value > closed or (family != "d2-diff" and value != closed):
                return f"L_{k} = {value} breaks the closed form {closed}"
        l1, ln = self._memo(
            (family, n),
            lambda: (
                refcheck.upper_base_1(n, refcheck.family_arcs(family, n)),
                refcheck.upper_base_n(n, refcheck.family_arcs(family, n)),
            ),
        )
        if (values[0], values[-1]) != (l1, ln):
            return f"L_1, L_n = {values[0]}, {values[-1]}; the DP gives {l1}, {ln}"
        if doc["bases"]["generalized_base"] != values[0]:
            return "generalized base differs from L_1"
        if any(b > a for a, b in zip(values, values[1:])):
            return f"L_k is not monotone: {values}"
        for row in table:
            w = row["witness"]
            if len(set(w)) != row["k"] or not all(1 <= x <= n for x in w):
                return f"witness {w} is not a {row['k']}-set"
            if refcheck.set_base(n, arcs, w) != row["value"]:
                return f"witness {w} has DP base {refcheck.set_base(n, arcs, w)}, not {row['value']}"
        for row, value in zip(doc["bounds"], values):
            wp = row["walk_pair"]["value"]
            cw = row["closed_walks"]["value"]
            if wp < value or cw is None or cw < value:
                return f"bounds {wp}, {cw} for k={row['k']} fall below L_k = {value}"
        return None


def _upper_base_check(op: Op, out: str, expected: int) -> str | None:
    if out.strip() != str(expected):
        return f"L_{op.k} printed {out.strip()!r}; the DP gives {expected}"
    return None


class FamilyUpperBase(Workload):
    """``upper-base --k 1`` and ``--k n`` on relabeled family members."""

    name = "family-upper-base"
    ORDERS = (13, 14, 15, 16)
    tail_pct = 95.0

    def make_round(self, seed, r, workdir):
        rng = random.Random(f"{self.name}:{seed}:{r}")
        ops = []
        for n in self.ORDERS:
            for family in FAMILIES:
                arcs = self._fresh(n, lambda: _relabeled(rng, family, n))
                path = _write(workdir, r, len(ops), n, arcs)
                for k in (1, n):
                    ops.append(Op(["upper-base", "--k", str(k), path], n, family, arcs, k=k))
        return ops

    def check(self, op, out):
        # L_1 and L_n do not change under relabeling, so the DP runs once
        # per family member on its canonical labeling.
        n, family = op.n, op.kind
        canon = refcheck.family_arcs(family, n)
        if op.k == 1:
            expected = self._memo((family, n, 1), lambda: refcheck.upper_base_1(n, canon))
        else:
            expected = self._memo((family, n, n), lambda: refcheck.upper_base_n(n, canon))
        if family != "d2-diff" and expected != refcheck.closed_upper_base(family, n, op.k):
            return f"the DP value {expected} breaks the closed form"
        return _upper_base_check(op, out, expected)


class DenseUpperBase(Workload):
    """``upper-base --k 1`` and ``--k n`` on dense random-signed primitive
    non-powerful inputs, plus complete order-10 inputs that overflow the
    cycle enumeration under the powerfulness test."""

    name = "dense-upper-base"
    #: (order, share of the n(n-1) off-diagonal arcs present, whether --k n
    #: runs besides --k 1).  Sorted by cost the ops run about 7 ms and 30 ms
    #: (4 ops), 0.13 s (6 ops, complete order 8), 1.1 s (4 ops, complete
    #: order 9) and 1.5 s (1 op).  The complete inputs' costs hardly depend
    #: on their signs, so the median falls inside the complete order-8 class
    #: and the 75th percentile inside the complete order-9 class, whatever
    #: the number of rounds.
    MIX = (
        (8, 0.6, True), (8, 0.8, True), (8, 1.0, True), (8, 1.0, True), (8, 1.0, True),
        (9, 1.0, True), (9, 1.0, True), (10, 0.8, False),
    )
    tail_pct = 75.0

    def make_round(self, seed, r, workdir):
        rng = random.Random(f"{self.name}:{seed}:{r}")
        inputs = []
        for n, share, both in self.MIX:
            m = round(share * n * (n - 1))
            inputs.append((n, self._fresh(n, lambda: _dense(rng, n, m)), both, False))
        # One complete order-10 input per round, with signs that do not
        # depend on the seed: every op on it fails with CapacityError today.
        fixed = random.Random(f"{self.name}:complete-10:{r}")
        inputs.append((10, self._fresh(10, lambda: _dense(fixed, 10, 90)), False, True))
        ops = []
        for i, (n, arcs, both, may_fail) in enumerate(inputs):
            path = _write(workdir, r, i, n, arcs)
            for k in (1, n) if both else (1,):
                ops.append(
                    Op(["upper-base", "--k", str(k), path], n, "dense", arcs, k=k, may_fail=may_fail)
                )
        return ops

    def check(self, op, out):
        if op.k == 1:
            expected = refcheck.upper_base_1(op.n, op.arcs)
        else:
            expected = refcheck.upper_base_n(op.n, op.arcs)
        return _upper_base_check(op, out, expected)


def _dense(rng: random.Random, n: int, m: int) -> list[Arc]:
    pairs = [(u, v) for u in range(1, n + 1) for v in range(1, n + 1) if u != v]
    while True:
        arcs = sorted((u, v, rng.choice((1, -1))) for u, v in rng.sample(pairs, m))
        if refcheck.is_primitive(n, arcs) and not refcheck.is_powerful(n, arcs):
            return arcs


def _stratified_seed(rng: random.Random, n: int) -> int:
    """A seed whose n-1 samples draw each arc budget n+2..2n once.

    The sampler's cost per sample is dominated by its budget (at order 6
    the budget n+2 takes about 17 times the attempts of budget 2n), so a
    fixed budget make-up per op keeps the op's cost from swinging with
    the budget mix.  The budgets are read by replaying the suite's first
    draws for the seed, as refcheck.nonpowerful_population does.
    """
    want = list(range(n + 2, 2 * n + 1))
    while True:
        seed = rng.getrandbits(31)
        draws = random.Random(seed)
        budgets = []
        for _ in want:
            budgets.append(draws.randint(n + 2, 2 * n))
            draws.getrandbits(32)
        if sorted(budgets) == want:
            return seed


GAP_FAMILY_LABELS = {"d1-canonical": "d1", "d2-same-sign": "d2-same", "d2-different-sign": "d2-diff"}


class GapVerify(Workload):
    """``verify --suite gap`` at order 6, each op with its own seed."""

    name = "gap-verify"
    N = 6
    OPS_PER_ROUND = 8
    tail_pct = 95.0

    def make_round(self, seed, r, workdir):
        rng = random.Random(f"{self.name}:{seed}:{r}")
        n = self.N
        ops = []
        for _ in range(self.OPS_PER_ROUND):
            op_seed = self._fresh(n, lambda: _stratified_seed(rng, n))
            argv = ["verify", "--suite", "gap", "--n-min", str(n), "--n-max", str(n),
                    "--samples", str(n - 1), "--seed", str(op_seed)]
            ops.append(Op(argv, n, "gap", samples=n - 1, seed=op_seed))
        return ops

    def check(self, op, out):
        n = op.n
        ks = sorted({1, 2, n})
        doc = json.loads(out)
        outcomes = doc["outcomes"]
        expected_count = (3 + op.samples) * len(ks) * 2
        if doc["outcome_count"] != expected_count or len(outcomes) != expected_count:
            return f"{len(outcomes)} outcomes, expected {expected_count}"
        if doc["passed"] is not True:
            return "the suite reports a failed outcome"
        samples = refcheck.nonpowerful_population(n, op.samples, op.seed)
        exact: dict[str, dict[int, int]] = {}
        for i, arcs in enumerate(samples):
            exact[f"sample-{i}"] = refcheck.upper_bases(n, arcs, ks)
        for label, family in GAP_FAMILY_LABELS.items():
            exact[label] = self._memo(
                (family, n), lambda: refcheck.upper_bases(n, refcheck.family_arcs(family, n), ks)
            )
        seen = set()
        for o in outcomes:
            label = o["note"].split(":")[0]
            k, ceil, value = o["k"], refcheck.ceiling(n, o["k"]), o["computed"]
            if o["n"] != n or k not in ks or label not in exact:
                return f"unexpected outcome row {o}"
            targets = {
                "isomorph-d1-exact-value": ("equals", ceil + 1, ceil + 1),
                "isomorph-d2-at-family-ceiling": ("at-most", 0, ceil),
                "upper-base-third-bound": ("at-most", 0, ceil - 3),
                "upper-base-gap": ("outside-open-interval", ceil - 3, ceil),
            }.get(o["claim"])
            if targets != (o["relation"], o["target_low"], o["target_high"]):
                return f"targets of {o['claim']} at n={n}, k={k} are not recomputed ones"
            if ceil - 3 < value < ceil:
                return f"{label}: L_{k} = {value} lies inside the gap"
            if value != exact[label][k]:
                return f"{label}: L_{k} = {value}; the DP gives {exact[label][k]}"
            family = GAP_FAMILY_LABELS.get(label)
            if family and family != "d2-diff" and value != refcheck.closed_upper_base(family, n, k):
                return f"{label}: L_{k} = {value} is not the closed form"
            if family == "d2-diff" and value > refcheck.closed_upper_base(family, n, k):
                return f"{label}: L_{k} = {value} breaks the bound"
            is_gap = o["claim"] == "upper-base-gap"
            shape = "isomorph-d1-exact-value" if family == "d1" else "isomorph-d2-at-family-ceiling"
            if family and not is_gap and o["claim"] != shape:
                return f"{label} is checked under {o['claim']}"
            seen.add((label, k, is_gap))
        if len(seen) != expected_count:
            return "outcome rows repeat or are missing"
        return None


WORKLOADS = {w.name: w for w in (FamilyAnalyze, FamilyUpperBase, DenseUpperBase, GapVerify)}
