"""Command line front end: one subparser per entry of report.COMMANDS.

Exit codes: 0 success, 2 usage or input error (including argparse
failures), 3 internal assertion failure (an invariant the package
promises was violated; these indicate a bug, not bad input).  A reader
that closes stdout early (`wptrans ... | head -1`) is not an error: the
rest of the output is dropped and the exit code stays 0.
"""

import argparse
import os
import sys

from .report import COMMANDS, CommandRequest, render, run

_FORMATS = ("text", "json")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="wptrans",
        description="Exact computations around group actions on Weierstrass points.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        p.add_argument("--format", choices=_FORMATS, default="text")
        for param in command.params + command.ignored:
            p.add_argument(param.flag, dest=param.key, type=param.type,
                           required=param.required, default=param.default,
                           help=param.help)
    return parser


def _request_from_args(args):
    """Only the declared parameters reach the request; ignored flags do not."""
    params = {}
    for param in COMMANDS[args.subcommand].params:
        value = getattr(args, param.key)
        params[param.key] = param.convert(value) if param.convert else value
    return CommandRequest(args.subcommand, params, args.format)


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        request = _request_from_args(args)
        document = run(request)
        output = render(document, request.fmt)
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except AssertionError as exc:
        print("internal check failed: %s" % exc, file=sys.stderr)
        return 3
    quiet_on_closed_pipe(lambda: print(output))
    return 0


def quiet_on_closed_pipe(emit):
    """Call emit(), which writes to stdout, and flush stdout.

    A reader that closes the pipe early ends the output quietly: the rest
    is dropped, with no traceback and no change to the exit code.
    """
    try:
        emit()
        sys.stdout.flush()
    except BrokenPipeError:
        # point stdout at devnull so the interpreter's flush at exit is silent
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


if __name__ == "__main__":
    sys.exit(main())
