"""Command-line front end.

Exit codes: 0 all checks pass, 1 a verification check failed, 2 usage or
input error. The environment variable BRACELAB_BUDGET overrides the closure
and lattice budgets; a value that is not a positive integer is an input error.
"""

from __future__ import annotations

import csv
import json
import sys
from pathlib import Path

import click

from .brace import classify_flags
from .campaigns import (
    CLASSIFY_COLUMNS,
    DEFAULT_SEED,
    SUITES,
    classification_row,
    run_suite,
    write_report_csv,
)
from .enumeration import (
    GROUP_ORDER_BUDGET,
    MAX_SOLUTION_SIZE,
    enumerate_involutive_solutions,
    enumerate_skew_braces,
    groups_of_order,
)
from .errors import BraceLabError, env_budget
from .series import nilpotency_report
from .serialize import catalog_lines, read_catalog, solution_from_json, write_catalog
from .ybe import multipermutation_level, permutation_brace


def _fail_input(message: str) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(2)


def _check_outputs(*paths: tuple[str, str | None]) -> None:
    """Fail before any work when an output file could not be created.

    Each path's directory must exist. A path naming a directory is already
    refused by click.Path(dir_okay=False).
    """
    for option, path in paths:
        if path is not None and not Path(path).parent.is_dir():
            _fail_input(f"{option} {path}: directory {Path(path).parent} does not exist")


@click.group()
def main() -> None:
    """Finite skew braces and Yang-Baxter solutions: enumeration, analysis,
    and theorem-verification campaigns."""
    try:
        env_budget(1)  # reject a malformed BRACELAB_BUDGET before any command runs
    except BraceLabError as exc:
        _fail_input(str(exc))


@main.command("enumerate")
@click.option("--kind", type=click.Choice(["braces", "solutions", "groups"]), required=True)
@click.option("--order", type=click.IntRange(min=1), required=True)
@click.option("--out", "out_path", type=click.Path(dir_okay=False), default=None)
@click.option("--checkpoint", type=click.Path(dir_okay=False), default=None,
              help="progress file for long brace enumerations")
def enumerate_catalog(kind: str, order: int, out_path: str | None, checkpoint: str | None):
    """Enumerate a catalog up to isomorphism and write it as JSON lines."""
    if checkpoint is not None and kind != "braces":
        _fail_input("--checkpoint applies only to --kind braces")
    _check_outputs(("--out", out_path), ("--checkpoint", checkpoint))
    try:
        if kind == "braces":
            cat = enumerate_skew_braces(order, checkpoint=checkpoint)
        elif kind == "solutions":
            cat = enumerate_involutive_solutions(order)
        else:
            cat = groups_of_order(order)
    except BraceLabError as exc:
        _fail_input(str(exc))
        return
    if out_path:
        write_catalog(cat, out_path)
        click.echo(f"{cat.meta['count']} {kind} of order {order} -> {out_path}")
    else:
        for line in catalog_lines(cat):
            click.echo(line, nl=False)


@main.command()
@click.option("--in", "in_path", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("--report", "report_path", type=click.Path(dir_okay=False), required=True)
def classify(in_path: str, report_path: str):
    """Classify every brace in a catalog file into a CSV report."""
    _check_outputs(("--report", report_path))
    try:
        cat = read_catalog(in_path)
    except (BraceLabError, ValueError, KeyError, json.JSONDecodeError) as exc:
        _fail_input(f"{in_path}: {exc}")
        return
    if cat.kind != "braces":
        _fail_input(f"{in_path}: expected a brace catalog, found {cat.kind}")
    with Path(report_path).open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CLASSIFY_COLUMNS)
        writer.writeheader()
        for i, b in enumerate(cat.items):
            writer.writerow({"index": i, **classification_row(b)})
    click.echo(f"classified {len(cat.items)} braces -> {report_path}")


@main.group()
def solution() -> None:
    """Operations on a single solution file."""


@solution.command()
@click.option("--in", "in_path", type=click.Path(exists=True, dir_okay=False), required=True)
def analyze(in_path: str):
    """Print multipermutation level, permutation-brace size, and verdicts."""
    try:
        data = json.loads(Path(in_path).read_text())
        sol = solution_from_json(data)
    except (BraceLabError, ValueError, KeyError, json.JSONDecodeError) as exc:
        _fail_input(f"{in_path}: {exc}")
        return
    level = multipermutation_level(sol)
    out = {
        "n": sol.n,
        "involutive": sol.involutive,
        "multipermutation": level is not None,
        "level": level,
    }
    try:
        brace, _ = permutation_brace(sol)
        rep = nilpotency_report(brace).to_json()
        out["permutation_brace"] = {
            "size": brace.n,
            "abelian_type": classify_flags(brace).abelian_type,
            **{k: rep[k] for k in ("nilpotent_type", "left", "right", "strong", "annihilator")},
        }
    except BraceLabError as exc:
        out["permutation_brace"] = {"error": str(exc)}
    click.echo(json.dumps(out, indent=2))


@main.command()
@click.option("--suite", type=click.Choice(SUITES), required=True)
@click.option("--max-order", type=click.IntRange(1, GROUP_ORDER_BUDGET), default=8,
              show_default=True)
@click.option("--max-size", type=click.IntRange(1, MAX_SOLUTION_SIZE), default=4,
              show_default=True)
@click.option("--samples", type=click.IntRange(min=0), default=1000, show_default=True)
@click.option("--seed", type=int, default=DEFAULT_SEED, show_default=True)
@click.option("--jobs", type=click.IntRange(min=1), default=1, show_default=True)
@click.option("--catalog-dir", type=click.Path(file_okay=False), default=None,
              help="cache enumerated catalogs here")
@click.option("--out", "out_path", type=click.Path(dir_okay=False), default=None,
              help="write the JSON report here instead of stdout")
@click.option("--csv", "csv_path", type=click.Path(dir_okay=False), default=None,
              help="write the CSV summary here")
def verify(suite, max_order, max_size, samples, seed, jobs, catalog_dir, out_path, csv_path):
    """Run a verification campaign; exit 1 if any check fails."""
    _check_outputs(("--out", out_path), ("--csv", csv_path))
    try:
        report = run_suite(
            suite,
            max_order=max_order,
            max_size=max_size,
            samples=samples,
            seed=seed,
            jobs=jobs,
            catalog_dir=catalog_dir,
        )
    except BraceLabError as exc:
        _fail_input(str(exc))
        return
    payload = json.dumps(report.to_json(), indent=2)
    if out_path:
        Path(out_path).write_text(payload + "\n")
        click.echo(f"report -> {out_path}")
    else:
        click.echo(payload)
    if csv_path:
        write_report_csv(report, csv_path)
        click.echo(f"csv -> {csv_path}")
    if not report.passed():
        failing = [c.claim_id for c in report.checks if c.failures]
        click.echo(f"FAILED checks: {', '.join(failing)}", err=True)
        sys.exit(1)


if __name__ == "__main__":
    main()
