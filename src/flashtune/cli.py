"""Command-line front end.

Subcommands: tune (single-objective search), tune-mo (multi-objective),
baseline (one prior-work method), eval (score two fronts against a dataset),
experiment (the full repeated-comparison rig), synth (generate a synthetic
dataset with its ground truth).

Exit codes: 0 success, 1 validation error (bad inputs or arguments),
2 runtime failure.
"""

from __future__ import annotations

import csv
import sys
from dataclasses import replace
from pathlib import Path

import click
import numpy as np

from . import metrics
from .baselines import LivesParams
from .cart import CartParams, dump_tree, fit as cart_fit
from .flash import FlashParams
from .harness import (
    METHOD_KINDS,
    OVERRIDES,
    ExperimentSpec,
    MethodSpec,
    load_experiment_dataset,
    run_experiment,
    run_method,
    write_report,
)
from .runs import write_trace_csv
from .space import (
    Dataset, DatasetError, _open_output, _write_csv, direction_signs, load_dataset, save_dataset,
    split,
)
from .stats import SkParams
from .synth import KINDS, generate_synthetic


def _dataset_options(fn):
    fn = click.option("--manifest", type=click.Path(exists=True, dir_okay=False), required=True,
                      help="Manifest file declaring options and objectives.")(fn)
    fn = click.option("--data", type=click.Path(exists=True, dir_okay=False), required=True,
                      help="CSV table, one row per measured configuration.")(fn)
    return fn


def _cart_options(fn):
    fn = click.option("--cart-min-split", type=int, default=4, show_default=True,
                      help="Smallest node the tree may split.")(fn)
    fn = click.option("--cart-min-leaf", type=int, default=2, show_default=True,
                      help="Smallest leaf the tree may create.")(fn)
    return fn


def _search_options(fn):
    fn = click.option("--size", type=int, default=30, show_default=True,
                      help="Random configurations measured before the model loop.")(fn)
    fn = click.option("--budget", type=int, default=50, show_default=True,
                      help="Model-guided measurements after the initial sample.")(fn)
    return fn


@click.group()
def cli():
    """Find high-performing configurations with few measurements."""


def _resolve_objective(dataset: Dataset, objective: str) -> int:
    names = dataset.objective_names
    if objective in names:
        return names.index(objective)
    try:
        idx = int(objective)
    except ValueError:
        raise DatasetError(f"unknown objective {objective!r}; have {names}") from None
    if not (0 <= idx < len(names)):
        raise DatasetError(f"objective index {idx} outside dataset with {len(names)} objectives")
    return idx


def _spec(methods, seed, cart_min_split, cart_min_leaf, size, budget,
          projections=FlashParams.n_projections, lives=LivesParams.lives,
          **fields) -> ExperimentSpec:
    """The experiment a command's options describe; `fields` are passed on as
    they are.  The search options are checked before the tree options."""
    return ExperimentSpec(
        methods=tuple(methods),
        seed=seed,
        flash=FlashParams(size=size, budget=budget, n_projections=projections, seed=seed),
        cart=CartParams(min_samples_split=cart_min_split, min_samples_leaf=cart_min_leaf),
        lives=LivesParams(lives=lives),
        sk=SkParams(seed=seed),
        **fields,
    )


def _refuse_foreign_files(out, command: str, own: str = "") -> None:
    """Refuse an `--out` holding the `front.csv` or `tree.txt` of another
    single-run command (all but `own`, which this command may write): this
    run would leave it beside files it does not describe."""
    for name in ("front.csv", "tree.txt"):
        if name != own and (Path(out) / name).exists():
            raise click.UsageError(f"--out {out} holds {name}, which {command} does not write")


def _write_run(out, run, dataset: Dataset, summary: list[str]) -> Path:
    """Write one run's `trace.csv`, then `summary.txt`: the command's own
    `summary` lines and the run's cost and stop reason."""
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_trace_csv(run, out_dir / "trace.csv", dataset.candidates(),
                    dataset.option_names, dataset.objective_names)
    summary = [*summary, f"measurements used: {run.measurements_used}",
               f"stop reason: {run.stop_reason}"]
    with _open_output(out_dir / "summary.txt") as fh:
        fh.write("\n".join(summary) + "\n")
    return out_dir


@cli.command()
@_dataset_options
@_cart_options
@_search_options
@click.option("--objective", default="0", show_default=True, help="Objective name or index.")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", type=click.Path(file_okay=False), required=True)
@click.option("--dump-tree", "dump_tree_flag", is_flag=True, help="Also write the final surrogate tree.")
def tune(manifest, data, objective, seed, out, dump_tree_flag, **search):
    """Single-objective model-based search over the whole dataset."""
    _refuse_foreign_files(out, "tune", own="tree.txt")
    dataset = load_dataset(manifest, data)
    obj = _resolve_objective(dataset, objective)
    spec = _spec([MethodSpec("flash")], seed, manifest=manifest, data=data, **search)
    run = run_method(spec.methods[0], dataset, (obj,), None, seed, spec)
    rd = metrics.rank_difference(run.best, dataset, obj)
    out_dir = _write_run(out, run, dataset, [
        f"objective: {dataset.objective_names[obj]} ({dataset.objectives[obj].direction})",
        f"best id: {run.best}",
        "best configuration: " + ", ".join(
            f"{n}={v:g}" for n, v in zip(dataset.option_names, dataset.config(run.best))),
        f"best measured value: {dataset.values[run.best, obj]!r}",
        f"rank difference: {rd}",
    ])
    if dump_tree_flag:
        Xe = np.array([dataset.config(i) for i, _ in run.evaluated])
        ye = np.array([v[obj] for _, v in run.evaluated])
        tree = cart_fit(Xe, ye, spec.cart)
        with _open_output(out_dir / "tree.txt") as fh:
            fh.write(dump_tree(tree, dataset.option_names))
    else:  # a tree from an earlier run into `out` would not describe this one
        (out_dir / "tree.txt").unlink(missing_ok=True)
    click.echo(f"best id {run.best}, rank difference {rd}, "
               f"{run.measurements_used} measurements -> {out_dir}")


@cli.command("tune-mo")
@_dataset_options
@_cart_options
@_search_options
@click.option("--projections", type=int, default=10, show_default=True,
              help="Random weight vectors per acquisition step.")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", type=click.Path(file_okay=False), required=True)
def tune_mo(manifest, data, seed, out, **search):
    """Multi-objective model-based search; writes the measured front."""
    _refuse_foreign_files(out, "tune-mo", own="front.csv")
    dataset = load_dataset(manifest, data)
    if len(dataset.objectives) < 2:
        raise DatasetError("tune-mo needs a dataset with at least two objectives")
    spec = _spec([MethodSpec("flash")], seed, manifest=manifest, data=data, **search)
    objectives = tuple(range(len(dataset.objectives)))
    run = run_method(spec.methods[0], dataset, objectives, None, seed, spec)
    gd, igd = metrics.front_quality(dataset, run.front, objectives)
    out_dir = _write_run(out, run, dataset, [
        f"objectives: {', '.join(dataset.objective_names)}",
        f"front size: {len(run.front)}",
        f"gd: {gd!r}",
        f"igd: {igd!r}",
    ])
    _write_front_csv(out_dir / "front.csv", dataset, run.front)
    click.echo(f"front of {len(run.front)} configurations, "
               f"{run.measurements_used} measurements -> {out_dir}")


def _write_front_csv(path: Path, dataset: Dataset, ids) -> None:
    _write_csv(path, ["id", *dataset.option_names, *dataset.objective_names], (
        [i, *(repr(float(v)) for v in dataset.configs[i]),
         *(repr(float(v)) for v in dataset.values[i])]
        for i in ids))


@cli.command()
@_dataset_options
@_cart_options
@_search_options
@click.option("--method", type=click.Choice(METHOD_KINDS), required=True)
@click.option("--objective", default=None,
              help="Objective name or index; by default the first, except that random then "
                   "searches every objective.  epal always searches every objective.")
@click.option("--lives", type=int, default=3, show_default=True)
@click.option("--epsilon", type=float, default=0.01, show_default=True)
@click.option("--with-replacement", is_flag=True,
              help="Sample the training pool with replacement (literal prior-work procedure).")
@click.option("--max-wall-time", type=float, default=None,
              help="Abort epal with partial results after this many seconds.")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", type=click.Path(file_okay=False), required=True)
def baseline(manifest, data, method, objective, seed, out, **options):
    """Run one method once, on the same pools the experiment rig uses."""
    _refuse_foreign_files(out, "baseline")
    if method == "epal" and objective is not None:
        raise click.UsageError("--objective does not apply to epal, which searches every objective")
    dataset = load_dataset(manifest, data)
    spec = _spec([MethodSpec(method)], seed, manifest=manifest, data=data, **options)
    parts = split(dataset, seed)

    if method == "epal" and len(dataset.objectives) < 2:
        raise DatasetError("epal needs a dataset with at least two objectives")
    obj = 0 if objective is None else _resolve_objective(dataset, objective)
    if method == "epal" or (method == "random" and objective is None):
        objectives = tuple(range(len(dataset.objectives)))
    else:
        objectives = (obj,)
    run = run_method(spec.methods[0], dataset, objectives, parts, seed, spec)

    summary = [f"method: {method}", f"seed: {seed}"]
    if run.best is not None:
        summary.append(f"best id: {run.best}")
        summary.append(f"rank difference: {metrics.rank_difference(run.best, dataset, obj)}")
    else:
        summary.append(f"front size: {len(run.front)}")
    out_dir = _write_run(out, run, dataset, summary)
    click.echo(f"{method}: {run.measurements_used} measurements -> {out_dir}")


@cli.command("eval")
@_dataset_options
@click.option("--true-front", type=click.Path(exists=True, dir_okay=False), required=True,
              help="CSV of option columns naming the reference front rows.")
@click.option("--approx-front", type=click.Path(exists=True, dir_okay=False), required=True,
              help="CSV of option columns naming the approximated front rows.")
def eval_fronts(manifest, data, true_front, approx_front):
    """Score an approximated front against a reference front on a dataset."""
    dataset = load_dataset(manifest, data)
    true_ids = _read_front_ids(dataset, Path(true_front))
    approx_ids = _read_front_ids(dataset, Path(approx_front))
    gd, igd = metrics.front_quality(dataset, approx_ids, range(len(dataset.objectives)),
                                    true_front=true_ids)
    click.echo(f"gd={gd!r}")
    click.echo(f"igd={igd!r}")
    approx_min = dataset.values[approx_ids] * direction_signs(dataset.directions)
    for j, name in enumerate(dataset.objective_names):
        rd = metrics.rank_difference(approx_ids[int(np.argmin(approx_min[:, j]))], dataset, j)
        click.echo(f"rd[{name}]={rd}")


def _read_front_ids(dataset: Dataset, path: Path) -> list[int]:
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise DatasetError(f"{path} is empty") from None
        except csv.Error as exc:
            raise DatasetError(f"{path} header: not readable as CSV: {exc}") from None
        cols = []
        for name in dataset.option_names:
            if name not in header:
                raise DatasetError(f"{path} is missing option column {name!r}")
            cols.append(header.index(name))
        ids = []
        rowno = 0
        try:
            for rowno, record in enumerate(reader, start=1):
                if not record or all(not c.strip() for c in record):
                    continue
                try:
                    config = tuple(float(record[c]) for c in cols)
                except (ValueError, IndexError):
                    raise DatasetError(f"{path} row {rowno}: non-numeric option value") from None
                try:
                    ids.append(dataset.lookup(config))
                except KeyError:
                    raise DatasetError(
                        f"{path} row {rowno}: configuration not in dataset") from None
        except csv.Error as exc:
            raise DatasetError(f"{path} row {rowno + 1}: not readable as CSV: {exc}") from None
    if not ids:
        raise DatasetError(f"{path} lists no configurations")
    return ids


# The `MethodSpec` override each `--methods` colon suffix sets, per method kind.
SUFFIX_KEYS = {"flash": "budget", "epal": "epsilon", "random": "n"}


@cli.command()
@click.option("--manifest", type=click.Path(exists=True, dir_okay=False), default=None)
@click.option("--data", type=click.Path(exists=True, dir_okay=False), default=None)
@click.option("--kind", type=click.Choice(KINDS), default=None,
              help="Generate a synthetic dataset instead of loading files.")
@click.option("--options", "n_options", type=int, default=10, show_default=True,
              help="Boolean options for the synthetic dataset.")
@click.option("--methods", default="flash,random", show_default=True,
              help="Comma list; epal takes a colon suffix for epsilon, random for its budget "
                   "and flash for its model-guided budget "
                   "(e.g. 'flash,epal:0.01,epal:0.3' or 'flash:20,random:50').")
@click.option("--objectives", default="", help="Comma list of objective names or indices; default all.")
@click.option("--repeats", type=int, default=20, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@_cart_options
@_search_options
@click.option("--projections", type=int, default=10, show_default=True)
@click.option("--lives", type=int, default=3, show_default=True)
@click.option("--epsilon", type=float, default=0.01, show_default=True)
@click.option("--with-replacement", is_flag=True)
@click.option("--max-wall-time", type=float, default=None)
@click.option("--emit-timing", is_flag=True,
              help="Also write wall-time data; those files vary run to run.")
@click.option("--out", type=click.Path(file_okay=False), required=True)
def experiment(kind, n_options, methods, objectives, emit_timing, out, **options):
    """Repeat every method over seeded splits and rank the results."""
    method_specs = []
    for token in [t.strip() for t in methods.split(",") if t.strip()]:
        kind_name, _, arg = token.partition(":")
        options_map = {}
        label = kind_name
        if arg:
            if kind_name not in SUFFIX_KEYS:
                raise DatasetError(f"method {kind_name!r} takes no parameter suffix")
            key = SUFFIX_KEYS[kind_name]
            convert = OVERRIDES[kind_name][key]
            try:
                options_map[key] = convert(arg)
            except ValueError:
                needed = "an int" if convert is int else "a float"
                raise ValueError(
                    f"method {kind_name!r}: suffix {arg!r} is not {needed}") from None
            label = f"{kind_name}_{arg}"
        method_specs.append(MethodSpec(kind_name, label, options_map))

    spec = _spec(method_specs, synthetic=(kind, n_options) if kind else None, **options)
    dataset, label = load_experiment_dataset(spec)
    if objectives:
        idx = tuple(_resolve_objective(dataset, o.strip()) for o in objectives.split(","))
        spec = replace(spec, objectives=idx)
    report = run_experiment(spec, dataset, label)
    click.echo(write_report(report, out, include_timing=emit_timing))
    click.echo(f"report files -> {Path(out)}")


@cli.command()
@click.option("--kind", type=click.Choice(KINDS), required=True)
@click.option("--options", "n_options", type=int, default=10, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", type=click.Path(file_okay=False), required=True)
def synth(kind, n_options, seed, out):
    """Generate a synthetic dataset plus its brute-force ground truth."""
    dataset = generate_synthetic(kind, n_options, seed)
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    save_dataset(dataset, out_dir / "manifest.txt", out_dir / "data.csv")
    rows = [["best", name, i] for j, name in enumerate(dataset.objective_names)
            for i in metrics.best_rows(dataset, j)]
    if len(dataset.objectives) >= 2:
        rows += [["front", "", i] for i in metrics.pareto_front(dataset.values, dataset.directions)]
    _write_csv(out_dir / "truth.csv", ["kind", "objective", "id"], rows)
    click.echo(f"{dataset.n_rows} rows -> {out_dir}")


def main(argv=None) -> int:
    """Entry point with the documented exit-code mapping."""
    try:
        cli.main(args=argv, standalone_mode=False)
    except click.ClickException as exc:  # usage errors too
        click.echo(f"error: {exc.format_message()}", err=True)
        return 1
    except ValueError as exc:  # DatasetError too
        click.echo(f"validation error: {exc}", err=True)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary; MeasureError too
        click.echo(f"runtime failure: {exc}", err=True)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
