"""Command-line entry point.

    blowlab <kind> [--config FILE] [--out DIR] [--seed INT] [--quiet]
                   [--set KEY=VALUE ...]
    blowlab replay MANIFEST [--out DIR] [--quiet]

Every run resolves its configuration (defaults <- file <- --set/--seed),
writes its artifacts (none if it fails) and a manifest.json into the output
directory, and prints one line per verdict. Exit codes: 0 all verdicts
passed, 1 some verdict failed, 2 usage or configuration error, 3 numerical
failure.

Everything runs in-process on local files; there are no network services.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from .config import load_config_file, resolve_config
from .errors import NumericError, UsageError
from .experiments import RUNNERS, RunOutcome, replay, run_kind
from .manifest import Verdict, build_manifest, save_manifest


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blowlab",
        description="Numerical checks for self-similar blow-up in the "
                    "semilinear heat equation u_t = Lap u + |u|^(p-1) u.")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="FILE",
                        help="key = value config file")
    common.add_argument("--out", metavar="DIR",
                        help="output directory (default runs/<kind>)")
    common.add_argument("--seed", type=int, metavar="INT",
                        help="override the seed for randomized batteries")
    common.add_argument("--quiet", action="store_true",
                        help="suppress everything except failures")
    common.add_argument("--set", dest="overrides", action="append", default=[],
                        metavar="KEY=VALUE", help="override one config key")

    descriptions = {
        "exponents": "critical exponents, their ordering, and the kappa identity",
        "verify-identities": "weighted integral identity and inequality battery",
        "spectrum": "linearized spectrum about a profile, with cross-checks",
        "shoot": "integrate one radial profile and classify it",
        "scan": "classify a range of center values and refine brackets",
        "evolve-rescaled": "rescaled flow: energy decay and dissipation identity",
        "blowup": "physical run to blow-up with blow-up time fit",
        "theorem13": "blow-up run plus the convergence-to-kappa window ladder",
    }
    for kind in RUNNERS:
        sub.add_parser(kind, parents=[common], help=descriptions[kind],
                       description=descriptions[kind])

    rep = sub.add_parser("replay", help="re-run a manifest and compare outputs",
                         description="Re-run a recorded manifest with its "
                                     "stored config and compare every output "
                                     "file (bitwise, then numerically at "
                                     "relative 1e-12).")
    rep.add_argument("manifest", help="path to manifest.json or its directory")
    rep.add_argument("--out", metavar="DIR",
                     help="output directory (default runs/replay)")
    rep.add_argument("--quiet", action="store_true")
    return parser


def _parse_overrides(pairs) -> dict:
    out = {}
    for item in pairs:
        key, sep, val = item.partition("=")
        if not sep or not key.strip():
            raise UsageError(f"--set expects KEY=VALUE, got {item!r}")
        out[key.strip()] = val.strip()
    return out


def _emit(verdicts, quiet: bool) -> bool:
    ok = True
    for v in verdicts:
        line = f"[{'PASS' if v.passed else 'FAIL'}] {v.name}: {v.detail}"
        if not v.passed:
            ok = False
            print(line, file=sys.stderr)
        elif not quiet:
            print(line)
    return ok


def _run(args) -> int:
    kind = args.command
    started = time.time()
    if args.out:
        # every part of --out that exists must be a directory
        out = Path(args.out)
        files = [q for q in (out, *out.parents) if q.exists() and not q.is_dir()]
        if files:
            raise UsageError(f"--out {args.out}: {files[0]} is not a directory")
    if kind == "replay":
        out_dir = Path(args.out) if args.out else Path("runs") / "replay"
        outcome = replay(args.manifest, out_dir)
        ok = _emit(outcome.verdicts, args.quiet)
        if not args.quiet:
            print(f"outputs: {out_dir}")
        return 0 if ok else 1

    file_values = load_config_file(args.config) if args.config else {}
    overrides = _parse_overrides(args.overrides)
    if args.seed is not None:
        overrides["seed"] = str(args.seed)
    cfg = resolve_config(kind, file_values, overrides)

    out_dir = Path(args.out) if args.out else Path("runs") / kind
    error = None
    try:
        outcome = run_kind(kind, cfg, out_dir)
    except (NumericError, UsageError) as exc:
        # a failed run leaves only its manifest: no outputs, one failed verdict
        error = exc
        name = "numeric-failure" if isinstance(exc, NumericError) else "refused"
        outcome = RunOutcome({}, [Verdict(name, False, str(exc))])
    manifest = build_manifest(kind, cfg, out_dir, outcome.outputs, outcome.verdicts,
                              started=started, finished=time.time(),
                              config_file=args.config, overrides=overrides)
    path = save_manifest(out_dir, manifest)
    if error is not None:
        raise error
    ok = _emit(outcome.verdicts, args.quiet)
    if not args.quiet:
        print(f"manifest: {path}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _run(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
