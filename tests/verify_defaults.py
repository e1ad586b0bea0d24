"""The sizes the tests run at: the ``verify`` defaults, read from the CLI
parser, the one place that states them, with any size overridden."""

from eisen2 import checks, cli


def sizes(**overrides) -> dict:
    """``verify``'s default order, nmax and mmax, then the overrides."""
    args = cli.build_parser().parse_args(["verify", "all"])
    return {"order": args.order, "nmax": args.nmax, "mmax": args.mmax, **overrides}


def workspace(**overrides) -> checks.Workspace:
    """A workspace at ``sizes(**overrides)``."""
    return checks.Workspace(**sizes(**overrides))
