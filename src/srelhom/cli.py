"""Command-line frontend.

Subcommands parse ring/module/multiplicative-set documents, run one
computation, and emit either a human-readable table or JSON with the
same numeric content.  Bare file names resolve against the bundled
fixtures directory (override with SRELHOM_FIXTURES or --fixtures).

Exit codes: 0 on success or a passing check, 1 when a checked statement
fails, 2 on malformed input; diagnostics name the offending file and
field in JSON-pointer style.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import pathlib
import sys

from .checks import REGISTRY, TheoremCase, full_suite, verify
from .dimensions import (
    DimValue,
    is_s_semisimple,
    local_profile,
    s_gldim,
    s_id,
    s_pd,
)
from .errors import InputError
from .homology import ext, ext_with_resolution, resolution, resolution_from_spec, resolution_to_spec
from .modules import is_uniformly_s_torsion, module_from_spec
from .rings import multset_from_spec, ring_from_spec
from .zmodules import factor_ring_check, z_module_from_spec, z_multset_from_spec

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2

RANDOMIZED = ("sgldim", "verify")


def _fixture_dir(override: str | None) -> pathlib.Path:
    if override:
        return pathlib.Path(override)
    env = os.environ.get("SRELHOM_FIXTURES")
    if env:
        return pathlib.Path(env)
    return pathlib.Path(__file__).parent / "fixtures"


def _read_doc(name: str, fixtures: pathlib.Path) -> tuple[dict, str]:
    path = pathlib.Path(name)
    if not path.exists():
        candidate = fixtures / name
        if candidate.exists():
            path = candidate
        else:
            raise InputError("%s: file not found (also tried %s)"
                             % (name, candidate))
    try:
        return json.loads(path.read_text()), str(path)
    except json.JSONDecodeError as exc:
        raise InputError("%s: invalid JSON (%s)" % (path, exc))


def _named(where, build):
    # constructor-level validation errors name the offending datum but
    # not the file; prepend it unless the parser already did
    try:
        return build()
    except InputError as exc:
        if where in str(exc):
            raise
        raise InputError("%s: %s" % (where, exc))


def _load_ring(args, fixtures):
    doc, where = _read_doc(args.ring, fixtures)
    return _named(where, lambda: ring_from_spec(doc, where))


def _load_multset(ring, args, fixtures):
    doc, where = _read_doc(args.multset, fixtures)
    return _named(where, lambda: multset_from_spec(ring, doc, where))


def _load_module(ring, name, fixtures):
    doc, where = _read_doc(name, fixtures)
    return _named(where, lambda: module_from_spec(ring, doc, where))


def _dim_json(value: DimValue):
    return value.value if value.known else str(value)


def _emit(args, doc: dict, lines: list) -> None:
    if args.json:
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        for line in lines:
            print(line)


# -- subcommand handlers -------------------------------------------------------


def _cmd_ext(args, fixtures):
    if not (args.resolution or args.module):
        raise InputError("--module: required unless --resolution is given")
    ring = _load_ring(args, fixtures)
    other = _load_module(ring, args.other, fixtures)
    if args.resolution:
        doc, where = _read_doc(args.resolution, fixtures)
        res = _named(where, lambda: resolution_from_spec(ring, doc, where))
        result = ext_with_resolution(res, other, args.degree)
    else:
        source = _load_module(ring, args.module, fixtures)
        result = ext(source, other, args.degree)
    doc = {"degree": args.degree, "dim": result.dim}
    _emit(args, doc, ["Ext^%d has F_%d-dimension %d"
                      % (args.degree, ring.p, result.dim)])
    return EXIT_OK


def _walk(kind, args, fixtures):
    ring = _load_ring(args, fixtures)
    s_set = _load_multset(ring, args, fixtures)
    mod = _load_module(ring, args.module, fixtures)
    result = (s_pd if kind == "S-pd" else s_id)(mod, s_set, args.bound)
    witness = None
    if result.certificate is not None and result.certificate.s is not None:
        witness = result.certificate.s.label()
    doc = {
        "kind": kind,
        "value": _dim_json(result.value),
        "bound": args.bound,
        "witness": witness,
        "levels": len(result.levels),
    }
    line = "%s = %s (bound %d)" % (kind, result.value, args.bound)
    if witness is not None:
        line += "; witness %s" % witness
    _emit(args, doc, [line])
    return EXIT_OK


def _cmd_spd(args, fixtures):
    return _walk("S-pd", args, fixtures)


def _cmd_sid(args, fixtures):
    return _walk("S-id", args, fixtures)


def _cmd_sgldim(args, fixtures):
    ring = _load_ring(args, fixtures)
    s_set = _load_multset(ring, args, fixtures)
    rep = s_gldim(ring, s_set, bound=args.bound, trials=args.trials,
                  seed=args.seed or 0)
    witness = rep.witness.label() if rep.witness is not None else None
    doc = {
        "candidate": _dim_json(rep.candidate),
        "witness": witness,
        "trials": rep.trials,
        "seed": rep.seed,
    }
    line = "S-gl.dim = %s (bound %d, %d trials)" % (rep.candidate, args.bound, rep.trials)
    if witness is not None:
        line += "; witness %s kills the radical" % witness
    _emit(args, doc, [line])
    return EXIT_OK


def _cmd_ssemisimple(args, fixtures):
    ring = _load_ring(args, fixtures)
    s_set = _load_multset(ring, args, fixtures)
    rep = is_s_semisimple(ring, s_set)
    witness = rep.s.label() if rep.s is not None else None
    doc = {"verdict": rep.verdict, "witness": witness}
    if rep.verdict:
        lines = ["S-semisimple: witness %s" % witness]
    else:
        lines = ["not S-semisimple: no single s scales a generator family"]
    _emit(args, doc, lines)
    return EXIT_OK


def _cmd_storsion(args, fixtures):
    ring = _load_ring(args, fixtures)
    s_set = _load_multset(ring, args, fixtures)
    mod = _load_module(ring, args.module, fixtures)
    w = is_uniformly_s_torsion(mod, s_set)
    witness = w.witness.label() if w.witness is not None else None
    doc = {"verdict": w.verdict, "witness": witness}
    if w.verdict:
        lines = ["uniformly S-torsion: witness %s" % witness]
    else:
        lines = ["not uniformly S-torsion (every s in S fails)"]
    _emit(args, doc, lines)
    return EXIT_OK


def _cmd_localprofile(args, fixtures):
    ring = _load_ring(args, fixtures)
    mod = _load_module(ring, args.module, fixtures)
    prof = local_profile(mod, args.kind, args.bound)
    doc = {
        "kind": args.kind,
        "classical": _dim_json(prof.classical.value),
        "sup": _dim_json(prof.sup_value),
        "formula_ok": prof.formula_ok,
        "entries": [[e.prime.label(), _dim_json(e.result.value)]
                    for e in prof.entries],
    }
    lines = ["classical %s = %s; prime-local supremum = %s (agreement: %s)"
             % (args.kind, prof.classical.value, prof.sup_value,
                prof.formula_ok)]
    lines += ["  at %-14s %s" % (e.prime.label(), e.result.value)
              for e in prof.entries]
    _emit(args, doc, lines)
    return EXIT_OK


def _cmd_factorcheck(args, fixtures):
    mdoc, mwhere = _read_doc(args.module, fixtures)
    mod = z_module_from_spec(mdoc, mwhere)
    sdoc, swhere = _read_doc(args.multset, fixtures)
    s_set = z_multset_from_spec(sdoc, ring="Z", where=swhere)
    rep = factor_ring_check(args.a, mod, s_set, bound=args.bound)
    doc = {
        "a": args.a,
        "verdict": rep.verdict,
        "z_value": _dim_json(rep.z_result.value),
        "mod_value": _dim_json(rep.bar_result.value),
        "statement": rep.statement,
    }
    if rep.verdict == "pass":
        line = "+1 identity holds: %s = %s + 1" % (rep.z_result.value,
                                                   rep.bar_result.value)
    elif rep.verdict == "fail":
        line = "+1 identity fails: %s" % rep.statement
    else:
        line = "+1 identity %s: %s" % (rep.verdict, rep.statement)
    _emit(args, doc, [line])
    return EXIT_FAIL if rep.verdict == "fail" else EXIT_OK


def _cmd_verify(args, fixtures):
    seed = args.seed or 0
    if args.theorem == "all":
        summary = full_suite(seed=seed, trials=args.trials, bound=args.bound)
        lines = []
        for rep in summary["reports"]:
            lines.append("%-12s  %3d trials  %3d pass  %2d fail  %3d vacuous"
                         % (rep["theorem"], rep["trials"], rep["passes"],
                            rep["failures"], rep["vacuous"]))
        lines.append("total failures: %d" % summary["failures"])
        _emit(args, summary, lines)
        return EXIT_OK if summary["failures"] == 0 else EXIT_FAIL
    rep = verify(TheoremCase(args.theorem, trials=args.trials, seed=seed,
                             bound=args.bound))
    doc = rep.to_json()
    lines = ["%s: %d trials, %d pass, %d fail, %d vacuous (seed %d)"
             % (rep.theorem, rep.trials, rep.passes, rep.failures,
                rep.vacuous, rep.seed)]
    for dump in rep.counterexamples:
        lines.append("counterexample at trial %d: %s"
                     % (dump["trial"], dump["detail"]))
    _emit(args, doc, lines)
    return EXIT_OK if rep.failures == 0 else EXIT_FAIL


def _cmd_resolve(args, fixtures):
    ring = _load_ring(args, fixtures)
    mod = _load_module(ring, args.module, fixtures)
    doc = resolution_to_spec(resolution(mod), args.depth)
    text = json.dumps(doc, indent=2, sort_keys=True)
    if args.out:
        pathlib.Path(args.out).write_text(text + "\n")
    else:
        print(text)
    return EXIT_OK


# -- parser -------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="srelhom",
        description="exact computations in S-relative homological algebra")
    parser.add_argument("--fixtures", help="fixtures directory override")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, ring=True, multset=False, module=False, bound=False):
        p.add_argument("--json", action="store_true",
                       help="machine-readable output")
        if ring:
            p.add_argument("--ring", required=True)
        if multset:
            p.add_argument("--multset", required=True)
        if module:
            p.add_argument("--module", required=True)
        if bound:
            p.add_argument("--bound", type=int, default=12)

    p = sub.add_parser("ext", help="dimension of Ext^n(M, N)")
    common(p)
    p.add_argument("--module", help="source module M")
    p.add_argument("--other", required=True)
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--resolution", help="re-use an exported resolution of M")
    p.set_defaults(handler=_cmd_ext)

    for name, handler in (("spd", _cmd_spd), ("sid", _cmd_sid)):
        p = sub.add_parser(name, help="S-relative dimension: 0, or >bound (a proof of infinity)")
        common(p, multset=True, module=True, bound=True)
        p.set_defaults(handler=handler)

    p = sub.add_parser("sgldim", help="S-global dimension: 0, or >bound (a proof of infinity)")
    common(p, multset=True, bound=True)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int)
    p.set_defaults(handler=_cmd_sgldim)

    p = sub.add_parser("ssemisimple", help="scaling-family semisimplicity test")
    common(p, multset=True)
    p.set_defaults(handler=_cmd_ssemisimple)

    p = sub.add_parser("storsion", help="uniform S-torsion test")
    common(p, multset=True, module=True)
    p.set_defaults(handler=_cmd_storsion)

    p = sub.add_parser("localprofile", help="prime-local dimension table")
    common(p, module=True, bound=True)
    p.add_argument("--kind", choices=("pd", "id"), default="pd")
    p.set_defaults(handler=_cmd_localprofile)

    p = sub.add_parser("factorcheck", help="Z vs Z/a dimension offset check")
    common(p, ring=False, multset=True, module=True)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--bound", type=int, default=12)
    p.set_defaults(handler=_cmd_factorcheck)

    p = sub.add_parser("verify", help="run a registry entry (or all)")
    p.add_argument("theorem", choices=sorted(REGISTRY) + ["all"])
    p.add_argument("--json", action="store_true")
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--bound", type=int)
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("resolve", help="export a free resolution as JSON")
    common(p, module=True)
    p.add_argument("--depth", type=int, default=4)
    p.add_argument("--out", help="write to a file instead of stdout")
    p.set_defaults(handler=_cmd_resolve)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if (args.subcommand in RANDOMIZED and getattr(args, "json", False)
            and args.seed is None):
        print("error: --seed: required with --json so runs are reproducible",
              file=sys.stderr)
        return EXIT_INPUT
    fixtures = _fixture_dir(args.fixtures)
    try:
        return args.handler(args, fixtures)
    except InputError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
