#!/usr/bin/env python3
"""Plant each fault of a fixed list in a copy of the package and check that
the tests listed with it catch it.

    python scripts/mutants.py

Each mutant names a file, an exact old text, the text that replaces it and
the test files that should fail on it.  For each mutant the script copies
`src/`, `tests/` and what those tests read (`scripts/`, `README.md`,
`pyproject.toml`) into a new temporary directory, refuses an old text that
does not occur exactly once there, makes the replacement and runs the listed
test files with pytest, stopping at the first failure, under a time limit of
`TIME_LIMIT` seconds.  It reports each mutant as:

- killed: a listed test failed;
- survived: every listed test passed;
- timed out: the tests did not finish within the limit;
- equivalent: it survived, and the list says why no test can tell it from
  the original (a mutant listed so that a test kills is reported as killed
  and counts as a failure of the list);
- refused: its old text does not occur exactly once.

Before the mutants, the listed test files run once on an unchanged copy,
which must pass, so that a kill means the fault and not the copy.  The exit
status is 1 when the unchanged copy fails or any mutant is not killed or
rightly equivalent, else 0.  Only temporary copies are written, never the
checkout.
"""

from __future__ import annotations

import os
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "scripts", "README.md", "pyproject.toml")
TIME_LIMIT = 300  # seconds for one mutant's tests


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    tests: tuple[str, ...]
    equivalent: str = ""  # why no test can tell it from the original, if so


MUTANTS = (
    Mutant(
        "pool searchers search the holdout instead of validation",
        "src/flashtune/harness.py",
        "else np.concatenate([train_ids, val_ids])",
        "else np.concatenate([train_ids, parts[1]])",
        ("tests/test_harness.py",),
    ),
    Mutant(
        "samplers ranked over the pool searchers' rows",
        "src/flashtune/harness.py",
        "rows=searched_rows(method, parts))",
        "rows=np.concatenate([parts[0], parts[2]]))",
        ("tests/test_harness.py",),
    ),
    Mutant(
        "bazza_select without the zero-span guard",
        "src/flashtune/flash.py",
        "(g - lo) / (span or 1.0)",
        "(g - lo) / span",
        ("tests/test_flash.py",),
    ),
    Mutant(
        "bazza_select takes every column's span from column 0",
        "src/flashtune/flash.py",
        "span = g.max() - lo",
        "span = (P[:, 0] * signs[0]).max() - lo",
        ("tests/test_flash.py",),
    ),
    Mutant(
        "split with the holdout and validation sizes swapped",
        "src/flashtune/space.py",
        "n_hold, n_val = n // 5, 2 * n // 5",
        "n_hold, n_val = 2 * n // 5, n // 5",
        ("tests/test_space.py",),
    ),
    Mutant(
        "argmin_row keeps the highest tied position",
        "src/flashtune/cart.py",
        "(best < 0 or first < best)",
        "(best < 0 or first > best)",
        ("tests/test_cart.py",),
    ),
    Mutant(
        "TableOracle returns every column, whatever columns says",
        "src/flashtune/space.py",
        "self._columns = slice(None) if columns is None else list(columns)",
        "self._columns = slice(None)",
        ("tests/test_relations.py",),
    ),
    Mutant(
        "Dataset.candidates without its range check",
        "src/flashtune/space.py",
        "if ids.size and (ids[0] < 0 or ids[-1] >= self.n_rows):",
        "if False:",
        ("tests/test_space.py",),
    ),
    Mutant(
        "Trace.finish keeps the last tied best",
        "src/flashtune/runs.py",
        "best = evaluated[int(np.argmin(scores * direction_signs(self.directions)))][0]",
        "best = evaluated[len(scores) - 1 - int(np.argmin("
        "(scores * direction_signs(self.directions))[::-1]))][0]",
        ("tests/test_runs.py",),
    ),
    Mutant(
        "two-objective _dominated lets an equal point dominate",
        "src/flashtune/metrics.py",
        '("left", np.greater)',
        '("left", np.greater_equal)',
        ("tests/test_metrics.py",),
    ),
    Mutant(
        "epsilon_discard without its epsilon",
        "src/flashtune/baselines.py",
        "np.vstack([h_measured, h_unknown - s_unknown]) + epsilon",
        "np.vstack([h_measured, h_unknown - s_unknown])",
        ("tests/test_baselines.py",),
    ),
    Mutant(
        "_best_split lets a later option win a near-tie",
        "src/flashtune/cart.py",
        "if g > best_gain + eps:",
        "if g > best_gain - eps:",
        ("tests/test_cart.py",),
    ),
    Mutant(
        "Dataset.lookup without canonicalising -0.0",
        "src/flashtune/space.py",
        "packed = self._pack(*[v + 0.0 for v in key])",
        "packed = self._pack(*key)",
        ("tests/test_space.py",),
    ),
    Mutant(
        "pareto_front keeps the front of the flipped directions",
        "src/flashtune/metrics.py",
        "V = P * -direction_signs(directions)",
        "V = P * direction_signs(directions)",
        ("tests/test_metrics.py",),
    ),
    Mutant(
        "gp_predict_batch drops the training mean",
        "src/flashtune/gp.py",
        "mu[:, j] = Ks @ g._alpha + g.y_mean",
        "mu[:, j] = Ks @ g._alpha",
        ("tests/test_gp.py",),
    ),
    Mutant(
        "gp_fit keeps the least likely length scale",
        "src/flashtune/gp.py",
        "lml > best[j][3]",
        "lml < best[j][3]",
        ("tests/test_gp.py",),
    ),
    Mutant(
        "the lives loop loses a life only on a strictly worse score",
        "src/flashtune/baselines.py",
        "if score <= last_score:",
        "if score < last_score:",
        ("tests/test_baselines.py",),
    ),
    Mutant(
        "a12 counts a tie as a win",
        "src/flashtune/stats.py",
        "(gt + 0.5 * eq)",
        "(gt + eq)",
        ("tests/test_stats.py",),
    ),
    Mutant(
        "scott_knott needs an A12 above the threshold, not at least it",
        "src/flashtune/stats.py",
        "a12(right, left) >= A12_THRESHOLD",
        "a12(right, left) > A12_THRESHOLD",
        ("tests/test_stats.py",),
    ),
    Mutant(
        "_open_output truncates instead of unlinking",
        "src/flashtune/space.py",
        "Path(path).unlink(missing_ok=True)",
        "None",
        ("tests/test_outputs.py",),
    ),
    Mutant(
        "_open_output writes through a file that appeared after the unlink",
        "src/flashtune/space.py",
        'open(path, "x", newline="", encoding="utf-8")',
        'open(path, "w", newline="", encoding="utf-8")',
        ("tests/test_outputs.py",),
    ),
    Mutant(
        "Dataset checks option domains column by column",
        "src/flashtune/space.py",
        "_check_domain(self.options, X, rows)",
        "for j in range(X.shape[1]): _check_domain(self.options[j:j + 1], X[:, j:j + 1], rows)",
        ("tests/test_space.py",),
    ),
    Mutant(
        "load_dataset reports a parse failure before an earlier domain error",
        "src/flashtune/space.py",
        "_check_domain(options, T[:, :d], rows)",
        "pass",
        ("tests/test_space.py",),
    ),
    Mutant(
        "load_dataset domain-checks the stand-ins of a bad cell and the cells after it",
        "src/flashtune/space.py",
        "T[-1, column:d] = [o.lo for o in options[column:]]",
        "pass",
        ("tests/test_space.py",),
    ),
    Mutant(
        "the shared CSV reader does not skip blank rows in its csv fallback",
        "src/flashtune/space.py",
        "if not record or all(not c.strip() for c in record):",
        "if False:",
        ("tests/test_cli.py",),
    ),
    Mutant(
        "eval looks up the row of a bad cell before reporting the cell",
        "src/flashtune/cli.py",
        "zip(T[:len(rows) - (bad is not None)], rows)",
        "zip(T, rows)",
        ("tests/test_cli.py",),
    ),
    Mutant(
        "Dataset.candidates truncates an id that is not an integer",
        "src/flashtune/space.py",
        "if fractional.any():",
        "if False:",
        ("tests/test_space.py",),
    ),
    Mutant(
        "_split_gain lets a later cut win a tie",
        "src/flashtune/stats.py",
        "if gain > best_gain:",
        "if gain >= best_gain:",
        ("tests/test_stats.py",),
    ),
    Mutant(
        "_factor retries with a jitter that does not grow",
        "src/flashtune/gp.py",
        "jitter = max(jitter * 10.0, 1e-12 * scale)",
        "jitter = 1e-12 * scale",
        ("tests/test_gp.py",),
    ),
    Mutant(
        "a refit keeps the old side where only the split option matches",
        "src/flashtune/cart.py",
        "old.option_index == j and old.threshold == thr",
        "old.option_index == j",
        ("tests/test_cart.py",),
    ),
    Mutant(
        "a refit skips the check of the rows after the inserted one",
        "src/flashtune/cart.py",
        'return (at, memo["tree"]) if (bits[at + 1:] == old[at:]).all() else (-1, None)',
        'return at, memo["tree"]',
        ("tests/test_cart.py",),
    ),
    Mutant(
        "a refit ignores a changed exponent",
        "src/flashtune/cart.py",
        'memo["params"] != params or memo["e"] != e',
        'memo["params"] != params',
        ("tests/test_cart.py",),
    ),
    Mutant(
        "a split's side mask sends a row equal to the threshold right",
        "src/flashtune/cart.py",
        "side = XT[j] <= thr",
        "side = XT[j] < thr",
        ("tests/test_cart.py",),
    ),
    Mutant(
        "_best_split counts one row too many on the right of a cut",
        "src/flashtune/cart.py",
        "right_n = counts[n - lo - 1:n - hi - 1:-1]",
        "right_n = counts[n - lo:n - hi:-1]",
        ("tests/test_cart.py",),
    ),
    Mutant(
        "a leaf's mean divides by the fit's row count",
        "src/flashtune/cart.py",
        "return Leaf(math.ldexp(yn.sum() / n, e), n)",
        "return Leaf(math.ldexp(yn.sum() / y.size, e), n)",
        ("tests/test_cart.py",),
    ),
)


def copy_checkout(dest: Path) -> None:
    for name in COPIED:
        source = ROOT / name
        if source.is_dir():
            shutil.copytree(source, dest / name, ignore=shutil.ignore_patterns("__pycache__"))
        else:
            shutil.copy2(source, dest / name)


def run_tests(copy: Path, tests: tuple[str, ...]) -> str:
    """"passed", "failed" or "timed out" for `tests` run inside `copy`."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    proc = subprocess.Popen(cmd, cwd=copy, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL, start_new_session=True)
    try:
        code = proc.wait(timeout=TIME_LIMIT)
    except subprocess.TimeoutExpired:
        code = None
    finally:  # pytest or a test may leave processes of its own behind
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if code is None:
        return "timed out"
    return "passed" if code == 0 else "failed"


def verdict(mutant: Mutant) -> str:
    with tempfile.TemporaryDirectory(prefix="flashtune-mutant-") as tmp:
        copy = Path(tmp)
        copy_checkout(copy)
        target = copy / mutant.file
        text = target.read_text(encoding="utf-8")
        if text.count(mutant.old) != 1:
            return f"refused: the old text occurs {text.count(mutant.old)} times"
        target.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
        outcome = run_tests(copy, mutant.tests)
    if outcome == "failed":
        return "killed, but listed as equivalent" if mutant.equivalent else "killed"
    if outcome == "timed out":
        return "timed out"
    return f"equivalent: {mutant.equivalent}" if mutant.equivalent else "survived"


def main() -> int:
    tests = tuple(dict.fromkeys(t for m in MUTANTS for t in m.tests))
    with tempfile.TemporaryDirectory(prefix="flashtune-mutant-") as tmp:
        copy_checkout(Path(tmp))
        baseline = run_tests(Path(tmp), tests)
    print(f"unchanged copy: {baseline}", flush=True)
    if baseline != "passed":
        return 1
    bad = 0
    for mutant in MUTANTS:
        result = verdict(mutant)
        bad += not (result == "killed" or result.startswith("equivalent:"))
        print(f"{result:>9}  {mutant.name}  ({mutant.file})", flush=True)
    print(f"{len(MUTANTS)} mutants, {bad} not killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
