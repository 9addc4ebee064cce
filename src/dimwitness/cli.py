"""Command-line front end.

Subcommands: simulate | certify | optimize | robustness | verify | report.
Every stochastic command requires an explicit seed; identical configuration
plus seed produces byte-identical output files.

Exit codes: 0 success, 2 configuration, 3 ingestion, 4 capacity,
5 data integrity.
"""

from __future__ import annotations

import atexit
import csv
import functools
import gc
import json
import sys
from typing import TYPE_CHECKING

import click
import numpy as np
from click.core import ParameterSource

from . import __version__
from .errors import (_JSON_KINDS, ConfigError, DimWitnessError, IngestionError,
                     _json_array, _reading)

# The other package modules are imported inside the commands and helpers that
# call them, so that a command compiles and runs only the modules it uses.
if TYPE_CHECKING:
    from .modes import ModeSet


def __getattr__(name):
    # `cli.<name>` is the package name (PEP 562), which the package reads from
    # its module on every access: the function a command would call now, a
    # patched one included.  Private names, such as the package's __path__,
    # are the package's own.
    if name.startswith("_"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(sys.modules[__package__], name)


# the JSON kind of a config value, by the type of the option that takes it;
# JSON null leaves the option at its default
_CONFIG_KINDS = {click.types.IntParamType: "integer", click.types.IntRange: "integer",
                 click.types.FloatParamType: "number", click.types.BoolParamType: "boolean",
                 click.types.StringParamType: "string", click.Path: "string",
                 click.Choice: "string"}


def _load_config(ctx, param, value):
    if value is None:
        return None
    try:
        with open(value) as fh:
            cfg = json.load(fh)
    except (OSError, ValueError) as exc:  # also a file that is not UTF-8
        raise ConfigError(f"cannot read config file {value}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config file must hold a JSON object")
    known = {p.name for cmd in cli.commands.values() for p in cmd.params}
    unknown = sorted(set(cfg) - known)
    if unknown:
        raise ConfigError(f"config file has keys no subcommand takes: {unknown}")
    for cmd in cli.commands.values():
        for p in cmd.params:
            kind, given = _CONFIG_KINDS[type(p.type)], cfg.get(p.name)
            try:
                _json_array(p.name, [] if given is None else [given], kind)
            except ValueError:
                raise ConfigError(f"config key {p.name!r} takes {_JSON_KINDS[kind][1]}"
                                  f", got {given!r:.100}") from None
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
    from .modes import ModeSet, enumerate_modes, generic_mode_set
    if mode_file:
        return ModeSet.load(mode_file)
    if l_max is not None or n_max is not None:
        return enumerate_modes(l_max or 0, n_max or 0)
    if fallback_D is not None:
        return generic_mode_set(fallback_D)
    raise ConfigError("no mode set given: use --mode-file or --l-max/--n-max")


def _rate_amplitudes(path, modes: ModeSet) -> np.ndarray:
    from .states import amplitudes_from_rates
    rates = {}
    with _reading("rate table", path), open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            mode, rate = (int(row["n"]), int(row["l"])), float(row["rate"])
            if mode in rates:
                raise ValueError(f"mode {mode} appears twice")
            rates[mode] = rate
        return amplitudes_from_rates(modes, rates)


_BY_NAME = "JSON if the file name ends in .json, else CSV."


def _given(*names) -> list:
    """The flags of the parameters `names` that the command line gives; a
    config file's defaults do not count."""
    ctx = click.get_current_context()
    return [f"--{name.replace('_', '-')}" for name in names
            if ctx.get_parameter_source(name) is ParameterSource.COMMANDLINE]


def _state_input(command):
    """Give `command` the mode and state options, and pass it the state they
    describe as `state`.

    The command line may name one state source, which replaces any that a
    config file names.  Mode options do not go with
    --state-file, whose file carries its own modes, and the decay constants
    only go with --profile exponential.
    """
    @click.option("--l-max", type=int, default=None)
    @click.option("--n-max", type=int, default=None)
    @click.option("--mode-file", type=click.Path(exists=True),
                  help="JSON array of {n, l} mode entries.")
    @click.option("--state-file", type=click.Path(exists=True),
                  help="State JSON file.")
    @click.option("--profile", type=click.Choice(["maximal", "exponential"]),
                  help="Built-in amplitude profile.")
    @click.option("--amplitudes", help="Comma-separated real amplitudes.")
    @click.option("--rate-file", type=click.Path(exists=True),
                  help="CSV (n,l,rate) of per-mode coincidence rates.")
    @click.option("--lambda-l", type=float, default=1.0, show_default=True)
    @click.option("--lambda-n", type=float, default=1.0, show_default=True)
    @functools.wraps(command)
    def with_state(l_max, n_max, mode_file, state_file, profile, amplitudes,
                   rate_file, lambda_l, lambda_n, **options):
        from .states import correlated_pure, load_state, maximally_entangled, spdc_profile
        sources = _given("state_file", "amplitudes", "rate_file", "profile")
        if len(sources) > 1:
            raise ConfigError(f"{' and '.join(sources)} each give a state; use one")
        if sources:  # a source on the command line replaces a config file's
            state_file, amplitudes, rate_file, profile = (
                value if flag in sources else None for flag, value in zip(
                    ("--state-file", "--amplitudes", "--rate-file", "--profile"),
                    (state_file, amplitudes, rate_file, profile)))
        if state_file and (flags := _given("l_max", "n_max", "mode_file")):
            raise ConfigError(f"{' and '.join(flags)} cannot be used with "
                              f"--state-file: the file carries its own modes")
        if profile != "exponential" and (flags := _given("lambda_l", "lambda_n")):
            raise ConfigError(f"{' and '.join(flags)} cannot be used without "
                              f"--profile exponential")
        if state_file:
            state = load_state(state_file)
        elif amplitudes:
            try:
                amps = np.array([float(x) for x in amplitudes.split(",")])
            except ValueError as exc:
                raise ConfigError(f"--amplitudes takes comma-separated numbers: "
                                  f"{exc}") from exc
            state = correlated_pure(amps, _mode_set(l_max, n_max, mode_file,
                                                    fallback_D=amps.size))
        else:
            modes = _mode_set(l_max, n_max, mode_file)
            if rate_file:
                state = correlated_pure(_rate_amplitudes(rate_file, modes), modes)
            elif profile == "maximal":
                state = maximally_entangled(modes)
            elif profile == "exponential":
                state = correlated_pure(spdc_profile(modes, lambda_l, lambda_n), modes)
            else:
                raise ConfigError("no state given: use --state-file, --amplitudes, "
                                  "--rate-file or --profile")
        return command(state=state, **options)

    return with_state


@cli.command()
@_state_input
@click.option("--flux", type=float, default=1e6, show_default=True,
              help="Expected total pair detections per setting scale.")
@click.option("--expectation", is_flag=True,
              help="Store exact expected counts instead of Poisson samples.")
@click.option("--seed", type=click.IntRange(min=0), default=None)
@click.option("--share-populations", is_flag=True,
              help="Reuse z-basis population counts across subspaces.")
@click.option("--dry-run", is_flag=True,
              help="Print the measurement count and exit without sampling.")
@click.option("--output", type=click.Path(), default=None, help=_BY_NAME)
def simulate(state, flux, expectation, seed, share_populations, dry_run, output):
    """Simulate the coincidence counts of a full measurement run."""
    from .measurement import simulate_counts, write_counts_csv, write_counts_json
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
    (write_counts_json if _is_json(output) else write_counts_csv)(ds, output)
    click.echo(f"wrote {n_meas} counts for D={D} to {output}")


def _is_json(path) -> bool:
    """The format rule of count and trajectory files: *.json is JSON, else CSV."""
    return str(path).endswith(".json")


def _load_dataset(path, mode_file, flux):
    """The dataset and the notes its reading leaves for the report."""
    from .measurement import _count_str, read_counts_csv, read_counts_json
    from .modes import ModeSet
    if _is_json(path):
        # a config file's defaults may name them; only flags are refused
        given = _given("mode_file", "flux")
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
              help=_BY_NAME)
@click.option("--mode-file", type=click.Path(exists=True), default=None)
@click.option("--flux", type=float, default=None,
              help="Dataset scale when certifying a bare CSV.")
@click.option("--resamples", type=int, default=0, show_default=True,
              help="Monte-Carlo resamples for sigma: pairs far from V = 0 get "
                   "a closed form, only the others are resampled (0: no sigma).")
@click.option("--seed", type=click.IntRange(min=0), default=None)
@click.option("--subset", default=None,
              help="Comma-separated flat indices; certify this subset only.")
@click.option("--output", type=click.Path(), required=True)
def certify(input_path, mode_file, flux, resamples, seed, subset, output):
    """Estimate visibilities, compute W and certify the dimensionality."""
    from .witness import build_report, table_from_dataset
    ds, notes = _load_dataset(input_path, mode_file, flux)
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
@click.option("--input", "input_path", type=click.Path(exists=True), required=True,
              help=_BY_NAME)
@click.option("--mode-file", type=click.Path(exists=True), default=None)
@click.option("--flux", type=float, default=None)
@click.option("--output", type=click.Path(), required=True, help=_BY_NAME)
def optimize(input_path, mode_file, flux, output):
    """Greedy mode-subset search maximizing the certified dimension."""
    from .witness import greedy_subset, table_from_dataset
    ds, _ = _load_dataset(input_path, mode_file, flux)
    result = greedy_subset(table_from_dataset(ds))
    if _is_json(output):
        payload = {"trajectory": [[dp, d] for dp, d, _ in result.trajectory],
                   "witness": [w for _, _, w in result.trajectory],
                   "best_subset": result.best_subset,
                   "best_certified_d": result.best_d}
        with open(output, "w") as fh:
            fh.write(json.dumps(payload, sort_keys=True) + "\n")
    else:
        with open(output, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["subset_size", "certified_d", "W"])
            w.writerows([dp, d, repr(float(wv))] for dp, d, wv in result.trajectory)
    click.echo(f"best subset size {len(result.best_subset)}, "
               f"certified d = {result.best_d}")


@cli.command()
@_state_input
@click.option("--kind", type=click.Choice(["state", "projector", "both"]),
              default="both", show_default=True)
@click.option("--trials", type=int, default=1000, show_default=True)
@click.option("--strength-max", type=float, default=0.2, show_default=True)
@click.option("--seed", type=click.IntRange(min=0), required=True)
@click.option("--output", type=click.Path(), required=True)
def robustness(state, kind, trials, strength_max, seed, output):
    """Perturbation sweep: how measurement and correlation imperfections
    move the witness."""
    from .witness import robustness_study
    result = robustness_study(state, kind, trials, strength_max, seed)
    payload = {"kind": result.kind, "baseline": result.baseline,
               "fraction_non_increasing": result.fraction_non_increasing,
               "trials": [[s, w] for s, w in result.trials]}
    with open(output, "w") as fh:
        fh.write(json.dumps(payload, sort_keys=True) + "\n")
    click.echo(f"baseline W = {result.baseline:.6g}, non-increasing fraction "
               f"= {result.fraction_non_increasing:.3f}")


@cli.command()
@click.option("--d-max", type=int, default=5, show_default=True,
              help="Largest dimension for the brute-force cross-checks.")
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
def verify(d_max, seed):
    """Cross-check the fast paths against the brute-force oracle."""
    from .modes import generic_mode_set
    from .oracle import brute_force_sv_witness, schmidt_rank
    from .states import correlated_pure, max_witness_state
    from .witness import bound, certified_dimension, table_from_state, witness_sum
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
            got = brute_force_sv_witness(max_witness_state(D, d))
            want = bound(D, d)
            check(f"saturating state (D={D}, d={d}) reaches {want:g}",
                  abs(got - want) < 1e-6)
    rng = np.random.default_rng(seed)
    ok = True
    for _ in range(50):
        amps = np.abs(rng.standard_normal(4))
        state = correlated_pure(amps, generic_mode_set(4))
        fast = witness_sum(table_from_state(state))
        brute = brute_force_sv_witness(state)
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
    with _reading("report", input_path), open(input_path) as fh:
        payload = json.load(fh)
        per_mode, trajectory = payload["per_mode"], payload.get("subset_trajectory")
        # a per_mode or a step that is no list yields no numbers, or no pair
        per_mode = _json_array("per_mode", per_mode, "number")
        if not np.isfinite(per_mode).all():
            raise ValueError(f"per_mode {per_mode.tolist()!r:.200} holds a value "
                             f"that is not finite")
        if trajectory is not None:
            if not set(map(len, trajectory)) <= {2}:
                raise TypeError(f"subset_trajectory {trajectory!r:.200} is not null "
                                f"or a list of integer pairs")
            _json_array("subset_trajectory", [x for step in trajectory for x in step],
                        "integer")
    if trajectory_csv and trajectory is None:
        raise IngestionError(f"report {input_path} holds no subset trajectory")
    if per_mode_csv:
        with open(per_mode_csv, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["mode_index", "mean_summed_visibility"])
            w.writerows((i, repr(v)) for i, v in enumerate(per_mode.tolist()))
    if trajectory_csv:
        with open(trajectory_csv, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["subset_size", "certified_d"])
            w.writerows(trajectory)
    click.echo("report data written")


@functools.cache
def _freeze_at_exit():
    # At exit, move every live object into the permanent generation, which the
    # interpreter's shutdown collections skip: that walk over the objects numpy
    # and click made at import cost 10-65 ms of wall time in each short CLI
    # process (2 shared vCPUs, Python 3.11), and the process ends anyway.
    # Atexit handlers, stream flushes and module teardown still run, and every
    # output file is closed by its `with` block.  Cached, so that the hook is
    # registered once per process.
    atexit.register(gc.freeze)


def main(argv=None):
    _freeze_at_exit()
    try:
        cli.main(args=argv, standalone_mode=False)
    except DimWitnessError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(exc.exit_code)
    except click.ClickException as exc:
        exc.show()
        sys.exit(2)
    except OSError as exc:  # e.g. an output path in a missing directory
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)
    except click.Abort:
        sys.exit(1)


if __name__ == "__main__":
    main()
