"""Command-line front end.

Subcommands: simulate | certify | optimize | robustness | verify | report.
Every stochastic command requires an explicit seed; identical configuration
plus seed produces byte-identical output files.

Exit codes: 0 success, 2 configuration, 3 ingestion, 4 capacity,
5 data integrity.
"""

from __future__ import annotations

import csv
import json
import math
import sys

import click
import numpy as np
from click.core import ParameterSource

from . import __version__
from .errors import ConfigError, DimWitnessError, IngestionError
from .modes import ModeSet, enumerate_modes, generic_mode_set
from .states import (CorrelatedState, amplitudes_from_rates, correlated_pure,
                     load_state, max_witness_state, maximally_entangled,
                     spdc_profile)
from .measurement import (_count_str, read_counts_csv, read_counts_json,
                          simulate_counts, write_counts_csv, write_counts_json)
from .witness import (bound, build_report, certified_dimension, greedy_subset,
                      robustness_study, table_from_dataset, table_from_state,
                      witness_sum)
from .oracle import brute_force_witness, schmidt_rank


def _load_config(ctx, param, value):
    if value is None:
        return None
    try:
        with open(value) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config file {value}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config file must hold a JSON object")
    # flags beat config values; config beats defaults
    ctx.default_map = {cmd: cfg for cmd in cli.commands}
    return value


@click.group()
@click.version_option(__version__)
@click.option("--config", type=click.Path(exists=True), callback=_load_config,
              expose_value=False, is_eager=True,
              help="JSON file with default option values.")
def cli():
    """Simulate, ingest and certify high-dimensional two-photon entanglement."""


def _mode_set(l_max, n_max, mode_file, fallback_D=None) -> ModeSet:
    if mode_file:
        return ModeSet.load(mode_file)
    if l_max is not None or n_max is not None:
        return enumerate_modes(l_max or 0, n_max or 0)
    if fallback_D is not None:
        return generic_mode_set(fallback_D)
    raise ConfigError("no mode set given: use --mode-file or --l-max/--n-max")


def _read_rates(path) -> dict:
    rates = {}
    try:
        with open(path, newline="") as fh:
            for row in csv.DictReader(fh):
                mode, rate = (int(row["n"]), int(row["l"])), float(row["rate"])
                if not math.isfinite(rate):
                    raise ValueError(f"rate {rate!r} of mode {mode} is not finite")
                if mode in rates:
                    raise ValueError(f"mode {mode} appears twice")
                rates[mode] = rate
    except (OSError, KeyError, TypeError, ValueError) as exc:
        raise IngestionError(f"cannot read rate table {path}: {exc}") from exc
    return rates


def _state_source(state_file, profile, amplitudes, rate_file, lambda_l,
                  lambda_n, l_max, n_max, mode_file):
    if state_file:
        return load_state(state_file)
    if amplitudes:
        amps = np.array([float(x) for x in amplitudes.split(",")])
        modes = _mode_set(l_max, n_max, mode_file, fallback_D=amps.size)
        return correlated_pure(amps, modes)
    modes = _mode_set(l_max, n_max, mode_file)
    if rate_file:
        return correlated_pure(amplitudes_from_rates(modes, _read_rates(rate_file)),
                               modes)
    if profile == "maximal":
        return maximally_entangled(modes)
    if profile == "exponential":
        return correlated_pure(spdc_profile(modes, lambda_l, lambda_n), modes)
    raise ConfigError("no state given: use --state-file, --amplitudes, "
                      "--rate-file or --profile")


_state_options = [
    click.option("--state-file", type=click.Path(exists=True),
                 help="State JSON file."),
    click.option("--profile", type=click.Choice(["maximal", "exponential"]),
                 help="Built-in amplitude profile."),
    click.option("--amplitudes", help="Comma-separated real amplitudes."),
    click.option("--rate-file", type=click.Path(exists=True),
                 help="CSV (n,l,rate) of per-mode coincidence rates."),
    click.option("--lambda-l", type=float, default=1.0, show_default=True),
    click.option("--lambda-n", type=float, default=1.0, show_default=True),
]

_mode_options = [
    click.option("--l-max", type=int, default=None),
    click.option("--n-max", type=int, default=None),
    click.option("--mode-file", type=click.Path(exists=True),
                 help="JSON array of {n, l} mode entries."),
]


def _add(options):
    def deco(fn):
        for opt in reversed(options):
            fn = opt(fn)
        return fn
    return deco


@cli.command()
@_add(_mode_options)
@_add(_state_options)
@click.option("--flux", type=float, default=1e6, show_default=True,
              help="Expected total pair detections per setting scale.")
@click.option("--expectation", is_flag=True,
              help="Store exact expected counts instead of Poisson samples.")
@click.option("--seed", type=int, default=None)
@click.option("--share-populations", is_flag=True,
              help="Reuse z-basis population counts across subspaces.")
@click.option("--dry-run", is_flag=True,
              help="Print the measurement count and exit without sampling.")
@click.option("--output", type=click.Path(), default=None)
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]),
              default="csv", show_default=True)
def simulate(l_max, n_max, mode_file, state_file, profile, amplitudes,
             rate_file, lambda_l, lambda_n, flux, expectation, seed,
             share_populations, dry_run, output, fmt):
    """Simulate the coincidence counts of a full measurement run."""
    state = _state_source(state_file, profile, amplitudes, rate_file,
                          lambda_l, lambda_n, l_max, n_max, mode_file)
    D = state.mode_set.D
    n_meas = 12 * D * (D - 1) // 2
    if dry_run:
        click.echo(f"D={D} modes, {D * (D - 1) // 2} subspaces, "
                   f"{n_meas} measurements")
        return
    if output is None:
        raise ConfigError("--output is required unless --dry-run is set")
    ds = simulate_counts(state, flux, seed=seed, expectation=expectation,
                         share_populations=share_populations)
    if fmt == "csv":
        write_counts_csv(ds, output)
    else:
        write_counts_json(ds, output)
    click.echo(f"wrote {n_meas} counts for D={D} to {output}")


def _load_dataset(path, fmt, mode_file, flux):
    """The dataset and the notes its reading leaves for the report."""
    if fmt == "json" or (fmt is None and str(path).endswith(".json")):
        # a config file's defaults may name them; only flags are refused
        ctx = click.get_current_context()
        given = [f"--{name.replace('_', '-')}" for name in ("mode_file", "flux")
                 if ctx.get_parameter_source(name) is ParameterSource.COMMANDLINE]
        if given:
            raise ConfigError(f"{' and '.join(given)} cannot be used with a JSON "
                              f"dataset: the file carries its own mode set and flux")
        return read_counts_json(path), []
    modes = ModeSet.load(mode_file) if mode_file else None
    ds = read_counts_csv(path, mode_set=modes, flux=flux)
    if flux is not None:
        return ds, []
    return ds, [f"flux taken as total z-basis counts ({_count_str(ds.flux)})"]


@cli.command()
@click.option("--input", "input_path", type=click.Path(exists=True), required=True,
              help="Coincidence dataset (CSV or JSON).")
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default=None)
@click.option("--mode-file", type=click.Path(exists=True), default=None)
@click.option("--flux", type=float, default=None,
              help="Dataset scale when certifying a bare CSV.")
@click.option("--resamples", type=int, default=0, show_default=True,
              help="Monte-Carlo resamples for the confidence interval.")
@click.option("--seed", type=int, default=None)
@click.option("--subset", default=None,
              help="Comma-separated flat indices; certify this subset only.")
@click.option("--output", type=click.Path(), required=True)
def certify(input_path, fmt, mode_file, flux, resamples, seed, subset, output):
    """Estimate visibilities, compute W and certify the dimensionality."""
    ds, notes = _load_dataset(input_path, fmt, mode_file, flux)
    table = table_from_dataset(ds)
    if subset:
        try:
            idx = [int(x) for x in subset.split(",")]
        except ValueError as exc:
            raise ConfigError(f"--subset takes mode indices: {exc}") from exc
        table = table.subset(idx)
        ds = None  # resampling a sliced dataset is not supported
        if resamples >= 2:
            raise ConfigError("--subset cannot be combined with --resamples")
    report = build_report(table, dataset=ds, n_resamples=resamples, seed=seed)
    report.notes.extend(notes)
    report.save(output)
    click.echo(f"W = {report.W:.6g} (D = {report.D}), "
               f"certified d = {report.certified_d}")


@cli.command()
@click.option("--input", "input_path", type=click.Path(exists=True), required=True)
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default=None)
@click.option("--mode-file", type=click.Path(exists=True), default=None)
@click.option("--flux", type=float, default=None)
@click.option("--output", type=click.Path(), required=True)
@click.option("--out-format", type=click.Choice(["json", "csv"]),
              default="json", show_default=True)
def optimize(input_path, fmt, mode_file, flux, output, out_format):
    """Greedy mode-subset search maximizing the certified dimension."""
    ds, _ = _load_dataset(input_path, fmt, mode_file, flux)
    result = greedy_subset(table_from_dataset(ds))
    if out_format == "json":
        payload = {"trajectory": [[dp, d] for dp, d, _ in result.trajectory],
                   "witness": [w for _, _, w in result.trajectory],
                   "best_subset": result.best_subset,
                   "best_certified_d": result.best_d}
        with open(output, "w") as fh:
            json.dump(payload, fh, sort_keys=True)
            fh.write("\n")
    else:
        with open(output, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["subset_size", "certified_d", "W"])
            for dp, d, wv in result.trajectory:
                w.writerow([dp, d, repr(float(wv))])
    click.echo(f"best subset size {len(result.best_subset)}, "
               f"certified d = {result.best_d}")


@cli.command()
@_add(_mode_options)
@_add(_state_options)
@click.option("--kind", type=click.Choice(["state", "projector", "both"]),
              default="both", show_default=True)
@click.option("--trials", type=int, default=1000, show_default=True)
@click.option("--strength-max", type=float, default=0.2, show_default=True)
@click.option("--seed", type=int, required=True)
@click.option("--output", type=click.Path(), required=True)
def robustness(l_max, n_max, mode_file, state_file, profile, amplitudes,
               rate_file, lambda_l, lambda_n, kind, trials, strength_max,
               seed, output):
    """Perturbation sweep: how measurement and correlation imperfections
    move the witness."""
    state = _state_source(state_file, profile, amplitudes, rate_file,
                          lambda_l, lambda_n, l_max, n_max, mode_file)
    if not isinstance(state, CorrelatedState):
        raise ConfigError("robustness study starts from a correlated state")
    result = robustness_study(state, kind, trials, strength_max, seed)
    payload = {"kind": result.kind, "baseline": result.baseline,
               "fraction_non_increasing": result.fraction_non_increasing,
               "trials": [[s, w] for s, w in result.trials]}
    with open(output, "w") as fh:
        json.dump(payload, fh, sort_keys=True)
        fh.write("\n")
    click.echo(f"baseline W = {result.baseline:.6g}, non-increasing fraction "
               f"= {result.fraction_non_increasing:.3f}")


@cli.command()
@click.option("--d-max", type=int, default=5, show_default=True,
              help="Largest dimension for the brute-force cross-checks.")
@click.option("--seed", type=int, default=0, show_default=True)
def verify(d_max, seed):
    """Cross-check the fast paths against the brute-force oracle."""
    failures = 0

    def check(name, ok):
        nonlocal failures
        click.echo(f"{'PASS' if ok else 'FAIL'}  {name}")
        failures += 0 if ok else 1

    check("bound(186, 99) == 35433", bound(186, 99) == 35433)
    check("certified_dimension(35529, 186) == 100",
          certified_dimension(35529, 186) == 100)
    for D in range(2, d_max + 1):
        for d in range(1, D + 1):
            got = brute_force_witness(max_witness_state(D, d))
            want = D * d + D * (D - 3) / 2
            check(f"saturating state (D={D}, d={d}) reaches {want:g}",
                  abs(got - want) < 1e-6)
    rng = np.random.default_rng(seed)
    ok = True
    for _ in range(50):
        amps = np.abs(rng.standard_normal(4))
        state = correlated_pure(amps, generic_mode_set(4))
        fast = witness_sum(table_from_state(state))
        brute = brute_force_witness(state)
        ok = ok and abs(fast - brute) < 1e-9
    check("table path matches brute force on random pure states", ok)
    check("Schmidt rank of the maximally entangled state",
          schmidt_rank(np.eye(4) / 2.0) == 4)
    if failures:
        raise DimWitnessError(f"{failures} verification check(s) failed")
    click.echo("all checks passed")


@cli.command()
@click.option("--input", "input_path", type=click.Path(exists=True), required=True,
              help="Witness report JSON.")
@click.option("--per-mode-csv", type=click.Path(), default=None,
              help="Write the per-mode mean summed visibility curve.")
@click.option("--trajectory-csv", type=click.Path(), default=None,
              help="Write the subset-size vs certified-d curve.")
def report(input_path, per_mode_csv, trajectory_csv):
    """Emit plot-data CSVs from a witness report."""
    try:
        with open(input_path) as fh:
            payload = json.load(fh)
        per_mode = [repr(float(v)) for v in payload["per_mode"]]
        trajectory = payload.get("subset_trajectory")
        if trajectory is not None:
            trajectory = [(dp, d) for dp, d in trajectory]
    except (OSError, KeyError, TypeError, ValueError) as exc:
        raise IngestionError(f"cannot read report {input_path}: {exc}") from exc
    if per_mode_csv:
        with open(per_mode_csv, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["mode_index", "mean_summed_visibility"])
            w.writerows(enumerate(per_mode))
    if trajectory_csv:
        if trajectory is None:
            raise IngestionError("report holds no subset trajectory")
        with open(trajectory_csv, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["subset_size", "certified_d"])
            for dp, d in trajectory:
                w.writerow([dp, d])
    click.echo("report data written")


def main(argv=None):
    try:
        cli.main(args=argv, standalone_mode=False)
    except DimWitnessError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(exc.exit_code)
    except click.ClickException as exc:
        exc.show()
        sys.exit(2)
    except click.Abort:
        sys.exit(1)


if __name__ == "__main__":
    main()
