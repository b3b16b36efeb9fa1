"""The benchmark's three workloads: inputs, CLI arguments and output checks.

Every input comes from the workload seed. Every check compares an output
with the independent reference in `reference.py`, or with a property the
method must have; none compares with a stored copy of an earlier output.
A check returns a list of problems, empty when the output is correct.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

import reference

# Tolerances: 1e-12 for quantities computed two ways; BOUND_SLACK for a bound
# whose two sides are equal in exact arithmetic and differ only by rounding.
AGREE = 1e-12
BOUND_SLACK = 1e-9

RUN_COLUMNS = ["n", "family", "perm_seed", "a", "b", "bad_size", "j_seed",
               "x", "success_prob", "v2_norm", "first_failing_stage"]
SWEEP_COLUMNS = ["n", "family", "perm_seed", "k", "a", "b", "bad_size", "j_seed",
                 "x_mode", "x_count", "mean_success_prob", "mean_v2_norm", "max_v2_norm",
                 "exceed_threshold", "exceed_count", "mean_error_len_tagged",
                 "mean_error_len_plain"]


def _read_csv(path: Path, columns: list[str]) -> tuple[list[dict], list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != columns:
        return [], [f"{path.name}: header {rows[0] if rows else None} != {columns}"]
    return [dict(zip(columns, row)) for row in rows[1:]], []


def _close(problems: list[str], what: str, got: float, want: float, tol: float = AGREE) -> None:
    if not abs(got - want) <= tol:
        problems.append(f"{what}: {got!r} vs reference {want!r} (|diff| > {tol:g})")


class SweepExhaustive:
    """`qperminv sweep` over every x at n=10, random family, two-cosine operator."""

    name = "sweep-exhaustive"
    n = 10
    a_values = (0.0, 1e-8)
    bad_sizes = (2,)
    threshold = 0.5
    # per-layer counts the workload must leave at zero (see README.md)
    zero_calls = ("invert.oracle.calls", "analysis.check_bounds.calls")

    def write_inputs(self, inputs: Path, seed: int) -> dict:
        config = {
            "master_seed": seed,
            "k": 1,
            "grid": {"n": [self.n], "family": ["random"], "a": list(self.a_values),
                     "bad_size": list(self.bad_sizes)},
            "x_mode": "all",
            "exceed_threshold": self.threshold,
        }
        path = inputs / "sweep.json"
        path.write_text(json.dumps(config, indent=2) + "\n", encoding="utf-8")
        return {"seed": seed, "config": str(path)}

    def argv(self, ctx: dict, out: Path) -> list[str]:
        return ["sweep", "--config", ctx["config"], "--workers", "1", "--out", str(out / "sweep.csv")]

    def reference(self, ctx: dict) -> dict:
        n = self.n
        perm_seed = reference.derive_seed(ctx["seed"], f"perm/random/n={n}")
        j_seed = reference.derive_seed(ctx["seed"], f"pseudo-identity/n={n}")
        table = reference.fisher_yates(n, perm_seed)
        points = []
        for a in self.a_values:
            for bad_size in self.bad_sizes:
                cos = reference.worst_case_cosines(n, a, bad_size, j_seed)
                success, _ = reference.simulate(table, cos, np.arange(1 << n))
                tagged, plain = reference.mean_error_lengths(table, cos)
                points.append({"a": a, "bad_size": bad_size, "success": float(success.mean()),
                               "tagged": tagged, "plain": plain})
        return {"perm_seed": perm_seed, "j_seed": j_seed, "points": points}

    def check(self, ctx: dict, ref: dict, out: Path) -> list[str]:
        rows, problems = _read_csv(out / "sweep.csv", SWEEP_COLUMNS)
        manifest = json.loads((out / "sweep.csv.manifest.json").read_text(encoding="utf-8"))
        seeds = manifest["derived_seeds"]
        if seeds.get(f"perm/random/n={self.n}") != ref["perm_seed"] or \
                seeds.get(f"pseudo-identity/n={self.n}") != ref["j_seed"]:
            problems.append(f"manifest seeds {seeds} differ from the derived seeds")
        if len(rows) != len(ref["points"]):
            return problems + [f"{len(rows)} sweep rows, expected {len(ref['points'])}"]
        for row, point in zip(rows, ref["points"]):
            where = f"row a={row['a']} bad_size={row['bad_size']}"
            echo = (int(row["n"]), float(row["a"]), int(row["bad_size"]), int(row["x_count"]),
                    int(row["perm_seed"]), int(row["j_seed"]))
            want = (self.n, point["a"], point["bad_size"], 1 << self.n,
                    ref["perm_seed"], ref["j_seed"])
            if echo != want:
                problems.append(f"{where}: echoed (n, a, bad_size, x_count, seeds) {echo} != {want}")
                continue
            _close(problems, f"{where} mean_error_len_tagged", float(row["mean_error_len_tagged"]),
                   point["tagged"])
            _close(problems, f"{where} mean_error_len_plain", float(row["mean_error_len_plain"]),
                   point["plain"])
            success = float(row["mean_success_prob"])
            _close(problems, f"{where} mean_success_prob", success, point["success"])
            mean_v2 = float(row["mean_v2_norm"])
            bound = reference.residual_bound(self.n, point["a"], point["bad_size"])
            if bound <= 1.0 and not mean_v2 <= bound:
                problems.append(f"{where}: mean residual {mean_v2} above its bound {bound}")
            x_count, threshold = int(row["x_count"]), float(row["exceed_threshold"])
            if not int(row["exceed_count"]) <= x_count * mean_v2 / threshold * (1 + AGREE):
                problems.append(f"{where}: exceed_count {row['exceed_count']} breaks the "
                                f"averaging bound {x_count * mean_v2 / threshold}")
            if not mean_v2 <= math.sqrt(max(0.0, 1.0 - success)) + AGREE:
                problems.append(f"{where}: mean_v2_norm {mean_v2} above sqrt(1 - mean success)")
        return problems


class AvinvTrace:
    """`qperminv run-avinv --x sample:<m>` at n=14 with tracing on, on a
    permutation file and a random/random-angle operator file."""

    name = "avinv-trace"
    n = 14
    samples = 100
    a = 1e-4
    bad_size = 16
    threshold = 0.99
    zero_calls = ("analysis.error_length.calls", "analysis.check_bounds.calls")

    def write_inputs(self, inputs: Path, seed: int) -> dict:
        size = 1 << self.n
        rng = np.random.default_rng([seed, 14])
        table = rng.permutation(size)
        bad = np.sort(rng.choice(size, self.bad_size, replace=False))
        cos = rng.uniform(1.0 - self.a, 1.0, size)
        cos[bad] = rng.uniform(-1.0, 1.0, self.bad_size)
        perm_path, op_path = inputs / "perm.txt", inputs / "op.txt"
        perm_path.write_text(f"n={self.n}\n" + "".join(f"{v}\n" for v in table.tolist()),
                             encoding="ascii")
        b = self.bad_size / size
        lines = [f"{self.n} 1 {self.a!r} {b!r} random/random-angle {seed}",
                 f"bad {self.bad_size}", *map(str, bad.tolist()), f"angles {size}",
                 *(f"{z} {c!r}" for z, c in enumerate(cos.tolist()))]
        op_path.write_text("\n".join(lines) + "\n", encoding="ascii")
        return {"seed": seed, "perm": str(perm_path), "op": str(op_path),
                "table": table, "cos": cos}

    def argv(self, ctx: dict, out: Path) -> list[str]:
        return ["run-avinv", "--perm-file", ctx["perm"], "--j-file", ctx["op"],
                "--x", f"sample:{self.samples}", "--master-seed", str(ctx["seed"]),
                "--threshold", repr(self.threshold), "--workers", "1",
                "--out", str(out / "avinv.csv")]

    def reference(self, ctx: dict) -> dict:
        xs = reference.sample_xs(self.n, self.samples,
                                 reference.derive_seed(ctx["seed"], f"xs/n={self.n}"))
        success, fidelity = reference.simulate(ctx["table"], ctx["cos"], xs)
        return {"xs": xs.tolist(), "success": success, "fidelity": fidelity}

    def _first_failing(self, fidelities) -> set:
        """First failing stage, read with the threshold nudged both ways by
        BOUND_SLACK, so that a fidelity within rounding of it allows either."""
        answers = set()
        for nudge in (-BOUND_SLACK, BOUND_SLACK):
            failing = [j for j, f in enumerate(fidelities) if f < self.threshold + nudge]
            answers.add(str(failing[0]) if failing else "")
        return answers

    def check(self, ctx: dict, ref: dict, out: Path) -> list[str]:
        rows, problems = _read_csv(out / "avinv.csv", RUN_COLUMNS)
        xs = [int(r["x"]) for r in rows]
        if xs != sorted(set(xs)):
            problems.append("rows are not ascending and unique in x")
        if xs != ref["xs"]:
            return problems + [f"rows cover x {xs[:5]}..., expected the sample {ref['xs'][:5]}..."]
        for i, row in enumerate(rows):
            where = f"x={row['x']}"
            echo = (int(row["n"]), float(row["a"]), int(row["bad_size"]), int(row["j_seed"]))
            if echo != (self.n, self.a, self.bad_size, ctx["seed"]):
                problems.append(f"{where}: echoed (n, a, bad_size, j_seed) {echo} differs")
            success = float(row["success_prob"])
            _close(problems, f"{where} success_prob", success, float(ref["success"][i]))
            _close(problems, f"{where} v2_norm", float(row["v2_norm"]),
                   math.sqrt(max(0.0, 1.0 - success)))
            allowed = self._first_failing(ref["fidelity"][i])
            if row["first_failing_stage"] not in allowed:
                problems.append(f"{where}: first_failing_stage {row['first_failing_stage']!r}, "
                                f"reference {sorted(allowed)}")
        return problems


class LemmaRandom:
    """`qperminv check-lemmas --n 8` with a large randomized bound suite."""

    name = "lemma-random"
    n = 8
    count = 10000
    checks = ("error-length-bound", "orthogonal-residual-bound", "overlap-ratio-identity",
              "mean-error-length-bound", "mean-residual-bound", "residual-markov-count",
              "parameter-identity", "failure-count-inequality")
    zero_calls = ("invert.oracle.calls",)

    def write_inputs(self, inputs: Path, seed: int) -> dict:
        return {"seed": seed}

    def argv(self, ctx: dict, out: Path) -> list[str]:
        return ["check-lemmas", "--n", str(self.n), "--count", str(self.count),
                "--seed", str(ctx["seed"]), "--out", str(out / "lemmas.json")]

    def reference(self, ctx: dict) -> dict:
        """The mean-error-length entry: the exhaustive instance, over bad sizes
        1, 2, 4 and both stage ranges, with the least slack to its bound."""
        n, seed = self.n, ctx["seed"]
        a = 2.0 ** (-2 * n)
        table = reference.fisher_yates(n, reference.derive_seed(seed, f"battery-perm/n={n}"))
        worst = None
        for bad_size in (1, 2, 4):
            cos = reference.worst_case_cosines(
                n, a, bad_size, reference.derive_seed(seed, f"battery-jop/n={n}/bad={bad_size}"))
            bound = 2.0 * math.sqrt(bad_size / (1 << n)) + 2.0 * math.sqrt(a) * 2.0 ** (n / 2)
            for prefixes in (range(0, n, 2), range(2, n + 1, 2)):
                for prefix_len in prefixes:
                    mean = float(reference.error_lengths(table, cos, prefix_len).mean())
                    if worst is None or bound - mean < worst[1] - worst[0]:
                        worst = (mean, bound)
        return {"mean_error_len": worst[0], "bound": worst[1]}

    def check(self, ctx: dict, ref: dict, out: Path) -> list[str]:
        report = json.loads((out / "lemmas.json").read_text(encoding="utf-8"))
        problems = [] if report.get("all_pass") is True else ["all_pass is not true"]
        entries = {c["name"]: c for c in report.get("checks", [])}
        if tuple(entries) != self.checks:
            return problems + [f"entries {list(entries)} != {list(self.checks)}"]
        for name, c in entries.items():
            if not c["measured"] <= c["bound"] + BOUND_SLACK:
                problems.append(f"{name}: measured {c['measured']} above bound {c['bound']}")
            if c["margin"] != c["bound"] - c["measured"]:
                problems.append(f"{name}: margin {c['margin']} != bound - measured")
        if entries["overlap-ratio-identity"]["measured"] != 0.0:
            problems.append("overlap-ratio identity does not read exactly 0")
        mean_len = entries["mean-error-length-bound"]
        _close(problems, "mean-error-length measured", mean_len["measured"], ref["mean_error_len"])
        _close(problems, "mean-error-length bound", mean_len["bound"], ref["bound"])
        return problems


WORKLOADS = {w.name: w for w in (SweepExhaustive(), AvinvTrace(), LemmaRandom())}
