"""Command-line interface on :mod:`argparse`, one subcommand per entry of
:data:`~bundle_auction_lab.experiments.COMMANDS`.  The CSV goes to ``--out``
(or stdout), run metadata to stderr.  Exit status is 0 on success, 2 on a
usage error, and 1 on a failed verify-style check (the CSV is still written)
or on bad input, in one ``Error:`` line; a bad ``--out`` fails before the run.
"""

import argparse
import errno
import os
import sys
from pathlib import Path

from . import __version__
from .experiments import COMMANDS, parse_config, render_footer, run


def _check_directory(out: str) -> None:
    """Raise the ``OSError`` that writing ``out`` would meet in its directory."""
    directory = os.path.join(os.path.dirname(out) or os.curdir, "")
    if not os.access(directory, os.W_OK):
        os.stat(directory)  # missing, or a file: the "/" needs a directory
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES))


def _parser() -> argparse.ArgumentParser:
    width = max(map(len, COMMANDS))
    parser = argparse.ArgumentParser(
        prog="bundle-auction-lab", usage="%(prog)s [-h] [--version] COMMAND ...",
        description="Customer-bundling auction experiments.",
        epilog="Commands:\n" + "".join(f"  {name:<{width}}  {command.help}\n"
                                       for name, command in COMMANDS.items()),
        formatter_class=argparse.RawDescriptionHelpFormatter, allow_abbrev=False)
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s, version {__version__}")
    subcommands = parser.add_subparsers(
        dest="command", metavar="COMMAND", required=True, prog=parser.prog,
        help=argparse.SUPPRESS)
    for name, command in COMMANDS.items():
        sub = subcommands.add_parser(name, description=command.help,
                                     allow_abbrev=False)
        sub.add_argument("--config", required=True, help="JSON experiment config.")
        sub.add_argument("--out", help="CSV output path (default: stdout).")
    return parser


def main(argv=None) -> None:
    parser = _parser()
    args = parser.parse_args(argv)
    if args.out and os.path.isdir(args.out):
        parser.error(f"argument --out: {args.out!r} is a directory")
    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        parser.exit(1, f"Error: config is not UTF-8: {exc}\n")
    except OSError as exc:
        parser.error(f"argument --config: {args.config!r}: {exc.strerror}")
    try:
        config = parse_config(text)
        if config.command != args.command:
            raise ValueError(f"config is for command {config.command!r}, "
                             f"invoked as {args.command!r}")
        if args.out:
            _check_directory(args.out)
        report = run(config, out_path=args.out or sys.stdout)
    except ValueError as exc:
        parser.exit(1, f"Error: {exc}\n")
    except OSError as exc:
        where = args.out or "stdout"
        parser.exit(1, f"Error: cannot write the CSV to {where}: {exc.strerror}\n")
    parser.exit(1 if report.passed is False else 0, render_footer(report))


if __name__ == "__main__":  # pragma: no cover
    main()
