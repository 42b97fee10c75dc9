"""Command line front end.

Exit codes: 0 success, 2 usage or input error (including argparse
failures), 3 internal assertion failure (an invariant the package
promises was violated; these indicate a bug, not bad input).
"""

import argparse
import sys

from .report import CommandRequest, render, run

_FORMATS = ("text", "json")


def _parse_periods(text):
    try:
        periods = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError("periods must be comma-separated integers, got %r" % text)
    if not periods:
        raise ValueError("empty period list")
    return periods


def _parse_mask(text):
    """'w1=0,w2=0' -> zero-based coordinate indices (0, 1)."""
    indices = []
    for part in text.split(","):
        name, _, value = part.strip().partition("=")
        if value != "0":
            raise ValueError("only zero constraints are supported, got %r" % part)
        if not name.startswith("w") or not name[1:].isdigit() or int(name[1:]) < 1:
            raise ValueError("mask entries look like w1=0, got %r" % part)
        indices.append(int(name[1:]) - 1)
    return tuple(sorted(set(indices)))


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="wptrans",
        description="Exact computations around group actions on Weierstrass points.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--format", choices=_FORMATS, default="text")
        return p

    p = add("hyperelliptic", "hyperelliptic surfaces with a transitive action, by genus")
    p.add_argument("--max-genus", dest="max_genus", type=int, required=True)

    p = add("hurwitz", "Macbeath's Hurwitz classification for PSL(2,q)")
    p.add_argument("--q", type=int, required=True)

    p = add("orbit-weights", "enumerate orbit-weight solutions and classify")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--periods", type=str, required=True,
                   help="comma separated, e.g. 2,3,7")
    p.add_argument("--target", type=int, required=True)
    p.add_argument("--mask", type=str, default="",
                   help="zero constraints, e.g. w1=0,w2=0")

    p = add("psl-verdict", "transitivity verdict for PSL(2,q) on X_{t,q}")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--t", type=int, required=True)

    p = add("modular", "transitivity verdict for the modular surface X(p)")
    p.add_argument("--p", type=int, required=True)

    p = add("bielliptic-scan", "scan genera for survivors of the divisibility refutation")
    p.add_argument("--from", dest="g_from", type=int, required=True)
    p.add_argument("--to", dest="g_to", type=int, required=True)
    p.add_argument("--workers", type=int, default=None, help="deprecated; ignored")

    p = add("fermat", "Fermat curve weight accounting and transitivity")
    p.add_argument("--n", type=int, required=True)

    add("validate-tables", "re-derive every identity in the embedded map census")

    p = add("census", "brute-force element order census of PSL(2,q)")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--workers", type=int, default=None, help="deprecated; ignored")

    return parser


def _request_from_args(args):
    params = {}
    for key, value in vars(args).items():
        if key in ("subcommand", "format") or value is None:
            continue
        if key == "periods":
            params[key] = _parse_periods(value)
        elif key == "mask":
            params[key] = _parse_mask(value) if value else ()
        else:
            params[key] = value
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
    print(output)
    return 0


if __name__ == "__main__":
    sys.exit(main())
