"""Batch command line: dataset stats, cross-validated runs, sweeps, ranks.

Exit codes: 0 on success, 2 on configuration errors, 3 on data errors. Any
failure writes a one-line JSON error record to stderr.
"""

from __future__ import annotations

import csv
import json
import sys
from dataclasses import asdict
from pathlib import Path

import click

from .dataset import (
    all_label_stats,
    load_mulan_files,
    reduce_features_by_frequency,
    summarize,
)
from .errors import ChainbalanceError, ConfigError
from .experiment import ExperimentConfig, collect_rank_matrix, run_cv, write_json
from .learner import TreeSpec
from .metrics import METRIC_KEYS, average_ranks
from .sampling import RngStream
from .simulate import sweep, sweep_to_csv

CONFIG_EXIT = 2
DATA_EXIT = 3


def _fail(code: int, exc: BaseException) -> None:
    record = {"error": type(exc).__name__, "message": str(exc)}
    click.echo(json.dumps(record), err=True)
    sys.exit(code)


def _guard(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except ConfigError as exc:
        _fail(CONFIG_EXIT, exc)
    except (FileExistsError, FileNotFoundError, IsADirectoryError,
            NotADirectoryError, PermissionError) as exc:
        _fail(DATA_EXIT, exc)
    except ChainbalanceError as exc:
        _fail(DATA_EXIT, exc)


@click.group()
def main() -> None:
    """Multi-label chain ensembles with undersampling, plus evaluation tools."""


@main.command()
@click.option("--arff", "arff_path", required=True, type=click.Path(path_type=Path))
@click.option("--xml", "xml_path", required=True, type=click.Path(path_type=Path))
@click.option("--feature-keep-fraction", type=float, default=None)
@click.option("--json", "json_path", type=click.Path(path_type=Path), default=None,
              help="Also write the statistics as JSON.")
def stats(arff_path: Path, xml_path: Path, feature_keep_fraction: float | None,
          json_path: Path | None) -> None:
    """Dataset sizes, label cardinality, and per-label imbalance ratios."""

    def body() -> None:
        ds = load_mulan_files(arff_path, xml_path)
        if feature_keep_fraction is not None:
            ds = reduce_features_by_frequency(ds, feature_keep_fraction)
        summary = summarize(ds)
        per_label = all_label_stats(ds)
        click.echo(
            f"relation={ds.relation} n={summary.n} d={summary.d} q={summary.q}"
        )
        click.echo(
            f"LC={summary.label_cardinality:.3f} "
            f"MeanImR={summary.mean_imr:.3f} "
            f"MaxImR={summary.max_imr:.3f} "
            f"CVImR={summary.cv_imr:.3f} "
            f"degenerate_labels={summary.degenerate_labels}"
        )
        click.echo("label_index,name,minority,majority,minority_class,imr")
        for stat in per_label:
            imr = "" if stat.imr is None else f"{stat.imr:.6g}"
            click.echo(
                f"{stat.label_index},{ds.label_names[stat.label_index]},"
                f"{stat.minority_count},{stat.majority_count},"
                f"{stat.minority_class},{imr}"
            )
        if json_path is not None:
            payload = {
                "relation": ds.relation,
                "summary": asdict(summary),
                "per_label": [
                    asdict(s) | {"name": ds.label_names[s.label_index]} for s in per_label
                ],
            }
            write_json(json_path, payload, indent=2, sort_keys=True)

    _guard(body)


def _typed(key: str, value, kind: type, optional: bool = False):
    """value converted by kind; None passes only where the key is optional.

    Config-file values arrive untyped, so a failed conversion is a
    ConfigError naming the key. int() and float() would also take a bool,
    and int() would drop a fraction; both are refused.
    """
    if value is None and optional:
        return None
    message = f"{key} must be {kind.__name__}, got {value!r}"
    if kind in (int, float) and (
        isinstance(value, bool)
        or kind is int and isinstance(value, float) and not value.is_integer()
    ):
        raise ConfigError(message)
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(message) from exc


def _file_key(name: str) -> str:
    """The config-file key of a cv parameter: tree_x is x of the "tree" object."""
    return name.replace("tree_", "tree.", 1) if name.startswith("tree_") else name


def _settings(ctx: click.Context, file_values: dict) -> dict:
    """Each cv setting by parameter name: a flag beats a file key beats the
    default. A file has one key per flag, as in the config echo of
    cv_results.json plus out_dir and n_jobs: the tree_* flags are keys of a
    "tree" object, the others are flat. Any other key is refused."""
    names = set(ctx.params) - {"config_path"}
    flat = {k: v for k, v in file_values.items() if k != "tree"}
    unknown = [k for k in flat if k not in names or k.startswith("tree_")]
    tree = file_values.get("tree", {})
    if isinstance(tree, dict):
        flat.update((f"tree_{k}", v) for k, v in tree.items())
        unknown += [f"tree.{k}" for k in tree if f"tree_{k}" not in names]
    else:
        unknown.append("tree (not an object)")
    if unknown:
        valid = sorted(map(_file_key, names))
        raise ConfigError(
            f"unknown config keys: {', '.join(unknown)}; valid: {', '.join(valid)}"
        )
    command_line = click.core.ParameterSource.COMMANDLINE
    return ctx.params | {
        k: v for k, v in flat.items() if ctx.get_parameter_source(k) != command_line
    }


@main.command()
@click.option("--config", "config_path", type=click.Path(path_type=Path), default=None,
              help="JSON config file; explicit flags override its keys.")
@click.option("--arff", default=None)
@click.option("--xml", default=None)
@click.option("--out-dir", default="chainbalance-results", show_default=True)
@click.option("--methods", default=None, help="Comma-separated method names.")
@click.option("--c", "c", type=int, default=10, show_default=True)
@click.option("--theta-max", type=float, default=10.0, show_default=True)
@click.option("--theta-min", type=float, default=None,
              help="ECCRU3's floor on each label's classifier count, as a fraction "
                   "of c; ECCRU3 uses 0.5 when unset.")
@click.option("--tree-max-depth", type=int, default=None)
@click.option("--tree-min-samples-leaf", type=int, default=2, show_default=True)
@click.option("--repeats", type=int, default=5, show_default=True)
@click.option("--folds", type=int, default=2, show_default=True)
@click.option("--feature-keep-fraction", type=float, default=None)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--n-jobs", type=int, default=1, show_default=True)
@click.pass_context
def cv(ctx: click.Context, config_path: Path | None, **_: object) -> None:
    """Cross-validated comparison of the configured methods on one dataset."""

    def body() -> None:
        file_values: dict = {}
        if config_path is not None:
            data = config_path.read_bytes()
            try:
                file_values = json.loads(data.decode("utf-8-sig"))
            except UnicodeDecodeError as exc:
                # exc.object is the file after any byte-order mark.
                at = exc.start + len(data) - len(exc.object)
                raise ConfigError(
                    f"bad config file: not UTF-8: byte 0x{data[at]:02x} at offset {at}"
                ) from exc
            except json.JSONDecodeError as exc:
                raise ConfigError(f"bad config file: {exc}") from exc
            if not isinstance(file_values, dict):
                raise ConfigError("config file must hold a JSON object")
        values = _settings(ctx, file_values)

        def get(key: str, kind: type, optional: bool = False):
            # click types the flags, so a wrong type comes from the file:
            # name the file's key.
            return _typed(_file_key(key), values[key], kind, optional)

        arff = get("arff", Path, optional=True)
        xml = get("xml", Path, optional=True)
        methods = values["methods"]
        if arff is None or xml is None or methods is None:
            raise ConfigError("arff, xml, and methods are required")
        if isinstance(methods, str):
            methods = [m.strip() for m in methods.split(",") if m.strip()]
        elif not (isinstance(methods, list) and all(isinstance(m, str) for m in methods)):
            raise ConfigError(f"methods must be a string or a list of strings, got {methods!r}")
        config = ExperimentConfig(
            arff_path=arff,
            xml_path=xml,
            out_dir=get("out_dir", Path),
            methods=tuple(methods),
            c=get("c", int),
            theta_max=get("theta_max", float),
            theta_min=get("theta_min", float, optional=True),
            tree=TreeSpec(
                max_depth=get("tree_max_depth", int, optional=True),
                min_samples_leaf=get("tree_min_samples_leaf", int),
            ),
            repeats=get("repeats", int),
            folds=get("folds", int),
            feature_keep_fraction=get("feature_keep_fraction", float, optional=True),
            seed=get("seed", int),
            n_jobs=get("n_jobs", int),
        )
        payload = run_cv(config)
        for method in config.methods:
            macro = payload["methods"][method]["overall"]["macro"]
            parts = " ".join(
                f"{key}={'NA' if macro[key] is None else f'{macro[key]:.4f}'}"
                for key in METRIC_KEYS
            )
            click.echo(f"{method}: {parts}")
        click.echo(f"results written to {config.out_dir}")

    _guard(body)


@main.command()
@click.option("--n", type=int, default=1000, show_default=True)
@click.option("--c", "c", type=int, default=10, show_default=True)
@click.option("--m-start", type=int, default=20, show_default=True)
@click.option("--m-end", type=int, default=400, show_default=True)
@click.option("--m-step", type=int, default=20, show_default=True)
@click.option("--runs", type=int, default=10_000, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", "out_path", type=click.Path(path_type=Path), default=None,
              help="CSV destination; stdout when omitted.")
def simulate(n: int, c: int, m_start: int, m_end: int, m_step: int, runs: int,
             seed: int, out_path: Path | None) -> None:
    """Majority-exploitation probability sweep: closed form vs Monte Carlo."""

    def body() -> None:
        if m_start < 1 or m_step < 1 or m_end < m_start:
            raise ConfigError("need 1 <= m-start <= m-end and m-step >= 1")
        rows = sweep(
            range(m_start, m_end + 1, m_step),
            n=n,
            c=c,
            runs=runs,
            rng=RngStream(seed),
        )
        if out_path is None:
            sweep_to_csv(rows, sys.stdout)
        else:
            sweep_to_csv(rows, out_path)
            click.echo(f"wrote {len(rows)} rows to {out_path}")

    _guard(body)


@main.command()
@click.option("--input-dir", type=click.Path(path_type=Path), default=None,
              help="Directory scanned recursively for cv_results.json files.")
@click.option("--results", "result_files", multiple=True,
              type=click.Path(path_type=Path), help="Explicit result files.")
@click.option("--metric", "metrics", multiple=True,
              help=f"Metrics to rank (default: all of {', '.join(METRIC_KEYS)}).")
@click.option("--out", "out_path", type=click.Path(path_type=Path), default=None,
              help="CSV destination; stdout when omitted.")
def rank(input_dir: Path | None, result_files: tuple[Path, ...],
         metrics: tuple[str, ...], out_path: Path | None) -> None:
    """Average ranks of methods across several cv result files."""

    def body() -> None:
        paths = list(result_files)
        if input_dir is not None:
            paths.extend(sorted(input_dir.rglob("cv_results.json")))
        if not paths:
            raise ConfigError("no result files found")
        chosen = metrics or METRIC_KEYS
        table: dict[str, dict[str, float]] = {}
        methods: list[str] = []
        for metric in chosen:
            methods, _, matrix = collect_rank_matrix(paths, metric)
            ranks = average_ranks(matrix, higher_is_better=True)
            for method, value in zip(methods, ranks):
                table.setdefault(method, {})[metric] = float(value)
        lines = [["method", *chosen]]
        for method in methods:
            lines.append(
                [method, *[f"{table[method][metric]:.4f}" for metric in chosen]]
            )
        if out_path is None:
            writer = csv.writer(sys.stdout)
            writer.writerows(lines)
        else:
            with open(out_path, "w", newline="") as handle:
                csv.writer(handle).writerows(lines)
            click.echo(f"wrote rank table to {out_path}")

    _guard(body)


if __name__ == "__main__":
    main()
