"""Command-line interface: thin dispatch onto the experiment runner.

Usage: ``bundle-auction-lab <subcommand> --config <path> [--out <path>]``.
There is one subcommand per entry of
:data:`~bundle_auction_lab.experiments.COMMANDS`, with that entry's help.
The CSV goes to ``--out`` (or stdout); run metadata goes to stderr.  Exit
status is 0 on success and 1 when a verify-style subcommand's check fails
(the failure is data -- the full CSV is still emitted).
"""

from __future__ import annotations

import sys
from pathlib import Path

import click

from . import __version__
from .experiments import (COMMANDS, ConfigError, emit_csv, parse_config,
                          render_footer, run)


def _execute(command: str, config_path: str, out) -> None:
    try:
        config = parse_config(Path(config_path).read_text(encoding="utf-8"))
        if config.command != command:
            raise click.ClickException(
                f"config is for command {config.command!r}, "
                f"invoked as {command!r}"
            )
    except ConfigError as exc:
        raise click.ClickException(str(exc))

    try:
        report = run(config, out_path=out)
    except (ConfigError, ValueError) as exc:
        raise click.ClickException(str(exc))

    if not (out or config.out):
        emit_csv(report, sys.stdout)
    sys.stderr.write(render_footer(report))
    if report.passed is False:
        raise SystemExit(1)


def _subcommand(name: str, help_text: str):
    @click.option("--config", "config_path", required=True,
                  type=click.Path(exists=True, dir_okay=False),
                  help="JSON experiment config.")
    @click.option("--out", type=click.Path(dir_okay=False), default=None,
                  help="CSV output path (default: stdout).")
    def command(config_path, out):
        _execute(name, config_path, out)

    command.__doc__ = help_text
    return main.command(name)(command)


@click.group()
@click.version_option(__version__, prog_name="bundle-auction-lab")
def main() -> None:
    """Customer-bundling auction experiments."""


for _name, _command in COMMANDS.items():
    _subcommand(_name, _command.help)


if __name__ == "__main__":  # pragma: no cover
    main()
