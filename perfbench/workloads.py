"""Seeded workloads for the srelhom benchmark.

Each workload builds, from the seed alone, a list of ops.  An op is one
registry trial, one CLI query or one API call.  It has four parts:

- prepare(): untimed; builds fresh argument objects so that every op
  starts without per-instance caches (resolutions are cached on Module
  instances);
- run(args): the timed call into the package;
- verify(args, result): untimed correctness check, returning an error
  message or None;
- describe(result): (canonical text, undecided) where undecided means
  the answer ended `vacuous` or `>bound`.

Every builder takes `pkg`, the freshly imported package namespace, so
that set-up can be repeated on a clean import.  Ops look package
functions up when they run, never when they are built, so that a tracer
installed after set-up sees the calls.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass
class Op:
    label: str
    tag: str
    prepare: Callable
    run: Callable
    verify: Callable
    describe: Callable


def reset_caches(pkg) -> None:
    """Empty the package's process-wide caches (registry memo, Z structure)."""
    pkg.checks._memo.clear()
    pkg.zmodules._structure.cache_clear()


@dataclass
class Workload:
    pkg: object
    ops: list
    reset_per_op: bool       # True: every op starts cold; False: every pass
    round_size: int          # consecutive ops holding one op of each kind
    whole_passes: bool = False   # a run ends only at the end of a pass

    def reset(self) -> None:
        reset_caches(self.pkg)


def _no_check(args, result):
    return None


# -- registry_sweep -------------------------------------------------------------


def registry_sweep(pkg, seed: int, workdir: str) -> Workload:
    """Every registry trial at its entry defaults, entries interleaved.

    Trials are ordered round-robin over the entries.  The memo that a real
    `verify all` builds is built here too, and cleared at the start of each
    pass.  Runs measure whole passes: trial costs are heavy-tailed and
    differ from seed to seed (single trials take up to 1.6 s), so a part
    of the sweep is not a steady sample of it.
    """
    entries = list(pkg.checks.REGISTRY.items())
    ops = []
    for index in range(max(entry.trials for _, entry in entries)):
        for name, entry in entries:
            if index >= entry.trials:
                continue
            dump = {"theorem": name, "trial": index, "seed": seed,
                    "bound": entry.bound, "max_rank": entry.max_rank}
            ops.append(Op("%s#%d seed %d" % (name, index, seed), name,
                          prepare=lambda d=dump: dict(d),
                          run=lambda dump: pkg.sr.replay(dump),
                          verify=_trial_verdict, describe=_trial_summary))
    return Workload(pkg, ops, reset_per_op=False,
                    round_size=len(entries), whole_passes=True)


def _trial_verdict(args, outcome):
    if outcome.verdict not in ("pass", "vacuous"):
        return "verdict %s: %s" % (outcome.verdict, outcome.detail)
    return None


def _trial_summary(outcome):
    return "%s|%s" % (outcome.verdict, outcome.detail), outcome.verdict == "vacuous"


# -- fp_deep_walks --------------------------------------------------------------

FP_BOUND = 2
# Ring indexes into fp_rings(), one op each in turn.  The product ring
# F2[t]/(t^3)xF2[t]/(t^2) takes three slots: its walks (50-190 ms against
# 2-20 ms for the rest) are the deep ones, and with one slot they were
# about 10% of ops, which put p90 on the edge between the two clusters,
# where it moved by 25% from seed to seed.
FP_RING_SLOTS = (0, 1, 2, 3, 4, 4, 4)
FP_ROUND = 9 * len(FP_RING_SLOTS)
FP_OPS = 8 * FP_ROUND


def _exterior_f2():
    """F2[x,y]/(x^2, y^2) on the basis 1, x, y, xy."""
    table = np.zeros((4, 4, 4), dtype=np.int64)
    mono = {0: (0, 0), 1: (1, 0), 2: (0, 1), 3: (1, 1)}
    index = {v: k for k, v in mono.items()}
    for i, (a1, b1) in mono.items():
        for j, (a2, b2) in mono.items():
            exp = (a1 + a2, b1 + b2)
            if exp in index:
                table[i, j, index[exp]] = 1
    return table


def fp_rings(sr):
    """(name, ring, radical basis, unit test coordinates) for the deep walks.

    The radicals are written down from the presentations, independently
    of the package's own radical computation.  An element is a unit
    exactly when its coordinates at the unit test positions (the constant
    term of each local factor) are all nonzero.
    """
    return [
        ("F2[t]/(t^4)", sr.truncated_polynomial(2, 4),
         [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], [0]),
        ("F3[t]/(t^3)", sr.truncated_polynomial(3, 3), [[0, 1, 0], [0, 0, 1]], [0]),
        ("F2[x,y]/(x^2,y^2)",
         sr.build_algebra(2, ["1", "x", "y", "xy"], _exterior_f2(), [1, 0, 0, 0]),
         [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], [0]),
        ("F2xF2[t]/(t^2)",
         sr.direct_product(sr.prime_field(2), sr.truncated_polynomial(2, 2),
                           labels=["e1", "e2", "f"]),
         [[0, 0, 1]], [0, 1]),
        ("F2[t]/(t^3)xF2[t]/(t^2)",
         sr.direct_product(sr.truncated_polynomial(2, 3), sr.truncated_polynomial(2, 2),
                           labels=["a", "at", "at2", "b", "bt"]),
         [[0, 1, 0, 0, 0], [0, 0, 1, 0, 0], [0, 0, 0, 0, 1]], [0, 3]),
    ]


def radical_presentation(rng, ring, radical, rank):
    """A presentation document R^rank / (nonzero relations drawn from the radical).

    Nonzero radical relations keep the module non-free, so no draw
    collapses a walk to a one-level answer by chance.
    """
    p = ring.p
    relations = []
    while len(relations) < rank:
        rel = []
        for _ in range(rank):
            coeffs = [0] * ring.dim
            for vec in radical:
                c = rng.randrange(p)
                coeffs = [(x + c * y) % p for x, y in zip(coeffs, vec)]
            rel.append(coeffs)
        if any(any(c) for c in rel):
            relations.append(rel)
    return {"kind": "presentation", "free_rank": rank, "relations": relations}


# Each kind decides walks the same way whatever the seed draws: S of
# units leaves a non-free module undecided at every level, and the
# complement of a maximal ideal of a product ring holds an idempotent
# that splits off one factor.  The maximal ideal is fixed by the op's
# slot, not drawn, for the same reason.
MULTSET_KINDS = ("trivial", "prime-complement", "units")


def _random_unit(rng, ring, unit_coords):
    while True:
        vec = [rng.randrange(ring.p) for _ in range(ring.dim)]
        if all(vec[i] for i in unit_coords):
            return vec


def _build_multset(sr, ring, kind, choice):
    if kind == "trivial":
        return sr.mult_closure(ring, [])
    if kind == "prime-complement":
        maximals = sr.enumerate_ideals(ring).maximals
        return sr.complement_multset(ring, maximals[choice % len(maximals)])
    return sr.mult_closure(ring, [choice])


def fp_deep_walks(pkg, seed: int, workdir: str) -> Workload:
    """s_pd, s_id and Ext over the five deep-walk rings.

    Ring, call and multset kind are stratified by op index: every
    FP_ROUND consecutive ops hold each combination once, so the seed
    changes the modules, units and degrees but not the mix.  Set-up only
    draws the presentations; modules and multsets are built before each
    op, outside its timing, so every op in a run is distinct.
    """
    sr = pkg.sr
    rng = random.Random("fp_deep_walks:%d" % seed)
    rings = fp_rings(sr)
    ops = []
    for index in range(FP_OPS):
        slot = index % len(FP_RING_SLOTS)
        name, ring, radical, unit_coords = rings[FP_RING_SLOTS[slot]]
        step = index // len(FP_RING_SLOTS)
        kind = ("s_pd", "s_id", "ext")[step % 3]
        rank = 1 if ring.dim >= 4 else 2
        spec = radical_presentation(rng, ring, radical, rank)
        label = "%s %s %s" % (kind, name, json.dumps(spec["relations"]))
        if kind == "ext":
            other = radical_presentation(rng, ring, radical, 1)
            degree = (step // 3) % 4
            ops.append(_ext_op(sr, "%s Ext^%d %s" % (label, degree,
                                                     json.dumps(other["relations"])),
                               name, ring, spec, other, degree))
        else:
            s_kind = MULTSET_KINDS[(step // 3) % 3]
            choice = _random_unit(rng, ring, unit_coords) if s_kind == "units" else slot
            ops.append(_walk_op(sr, "%s S=%s %s" % (label, s_kind, choice), name, kind,
                                ring, spec, s_kind, choice))
    return Workload(pkg, ops, reset_per_op=True,
                    round_size=FP_ROUND)


def _walk_op(sr, label, tag, kind, ring, spec, s_kind, choice):
    def verify(args, result):
        if result.value.known and not result.certificate.verify():
            return "certificate of %s does not re-verify" % result.value
        if kind == "s_id" and result.cross_check != result.value:
            return "s_id %s differs from its cross-check %s" % (
                result.value, result.cross_check)
        return None

    def describe(result):
        cert = result.certificate
        witness = cert.s.label() if cert is not None else "-"
        return "%s|%s|%d" % (result.value, witness, len(result.levels)), \
            not result.value.known

    return Op(label, tag,
              prepare=lambda: (sr.module_from_spec(ring, spec),
                               _build_multset(sr, ring, s_kind, choice), FP_BOUND),
              run=lambda args: getattr(sr, kind)(*args), verify=verify,
              describe=describe)


def _ext_op(sr, label, tag, ring, src_spec, tgt_spec, degree):
    def verify(args, result):
        other = sr.ext(sr.module_from_spec(ring, src_spec),
                       sr.module_from_spec(ring, tgt_spec),
                       degree, style="seeded-random", seed=1)
        if other.dim != result.dim:
            return "Ext^%d dim %d, a seeded-random resolution gives %d" % (
                degree, result.dim, other.dim)
        return None

    return Op(label, tag,
              prepare=lambda: (sr.module_from_spec(ring, src_spec),
                               sr.module_from_spec(ring, tgt_spec), degree),
              run=lambda args: sr.ext(*args), verify=verify,
              describe=lambda result: ("dim=%d" % result.dim, False))


# -- cli_queries ----------------------------------------------------------------

CLI_VERIFY_TRIALS = 2
CLI_VERIFY_PER_ROUND = 2
CLI_ROUNDS = 12
# Entries whose first trial builds a global-dimension sweep over the whole
# ideal lattice (0.1-1.4 s per query); one of them would outweigh the rest
# of a pass.  registry_sweep runs them.
CLI_VERIFY_SKIP = ("cor-3.3", "cor-3.5", "example-3.6")


def run_cli(main, argv):
    """cli.main(argv) in-process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _undecided_doc(doc) -> bool:
    if not isinstance(doc, dict):
        return False
    for key in ("value", "classical", "sup", "z_value", "mod_value"):
        if isinstance(doc.get(key), str) and doc[key].startswith(">"):
            return True
    return doc.get("verdict") == "vacuous"


def cli_op(pkg, label, tag, argv, expect=None, out_file=None, docs=None):
    """One CLI query; expect(doc) returns an error message or None.

    docs maps file paths to the JSON documents the query reads; they are
    written before the query's first run, outside set-up and timing.
    """

    def prepare():
        for path, doc in (docs or {}).items():
            if not os.path.exists(path):
                with open(path, "w") as fh:
                    json.dump(doc, fh)
        return list(argv)

    def verify(args, result):
        code, stdout, stderr = result
        if code != 0:
            return "exit %d: %s" % (code, stderr.strip()[:200])
        try:
            text = open(out_file).read() if out_file else stdout
            doc = json.loads(text)
        except (OSError, ValueError) as exc:
            return "output is not JSON: %s" % exc
        return expect(doc) if expect is not None else None

    def describe(result):
        code, stdout, _ = result
        try:
            undecided = _undecided_doc(json.loads(stdout)) if stdout else False
        except ValueError:
            undecided = False
        return "%d|%s" % (code, stdout), undecided

    return Op(label, tag, prepare=prepare,
              run=lambda args: run_cli(pkg.cli.main, args), verify=verify,
              describe=describe)


def _dim_json(value):
    """A DimValue as the CLI writes it: an int, or the '>bound' token."""
    return value.value if value.known else str(value)


def _expect_fields(**want):
    def expect(doc):
        bad = {k: doc.get(k) for k, v in want.items() if doc.get(k) != v}
        return "expected %s, got %s" % (want, bad) if bad else None
    return expect


def _documents(workdir, **docs):
    """({name: path}, {path: doc}, digest) for one set of generated documents."""
    paths = {name: os.path.join(workdir, "%s.json" % name) for name in docs}
    digest = hashlib.sha256(json.dumps(docs, sort_keys=True).encode()).hexdigest()
    return paths, {paths[name]: doc for name, doc in docs.items()}, digest[:16]


def cli_queries(pkg, seed: int, workdir: str) -> Workload:
    """The README's commands on the bundled fixtures, plus generated documents.

    A round is the fixture commands, CLI_VERIFY_PER_ROUND `verify` queries
    (light entries in turn, with a per-round seed) and one set of queries
    on freshly generated documents per ring of the registry's pool, so
    rounds differ, a run covers many inputs, and every round has the same
    mix.  Registry trials are heavy-tailed; with every entry in every
    round they took 40% of the time and most of its variance.
    """
    rng = random.Random("cli_queries:%d" % seed)
    pool = pkg.instances.bundled_rings()
    entries = sorted(set(pkg.checks.REGISTRY) - set(CLI_VERIFY_SKIP))
    ops = []
    for rnd in range(CLI_ROUNDS):
        ops.extend(_fixture_queries(pkg, seed, workdir))
        ops.extend(_verify_op(pkg, entries[(CLI_VERIFY_PER_ROUND * rnd + k) % len(entries)],
                              seed * CLI_ROUNDS + rnd)
                   for k in range(CLI_VERIFY_PER_ROUND))
        for k, (name, ring) in enumerate(pool):
            index = rnd * len(pool) + k
            ops.extend(_generated_queries(pkg, rng, name, ring, workdir, index))
            ops.append(_generated_factorcheck(pkg, rng, workdir, index))
    return Workload(pkg, ops, reset_per_op=True,
                    round_size=len(ops) // CLI_ROUNDS)


def _fixture_queries(pkg, seed, workdir):
    """The README's commands on the bundled fixtures, with its documented values."""
    res_path = os.path.join(workdir, "res.json")
    return [
        cli_op(pkg, "spd example36 S1s m2", "spd",
               ["spd", "--ring", "example36.json", "--multset", "S1s.json",
                "--module", "m2.json", "--bound", "8", "--json"],
               _expect_fields(value=0, witness="e1")),
        cli_op(pkg, "spd example36 trivial m2", "spd",
               ["spd", "--ring", "example36.json", "--multset", "trivial.json",
                "--module", "m2.json", "--bound", "8", "--json"],
               _expect_fields(value=">8")),
        cli_op(pkg, "factorcheck z3 gen2", "factorcheck",
               ["factorcheck", "--a", "3", "--multset", "gen2.json", "--module",
                "z3.json", "--json"],
               _expect_fields(verdict="pass", z_value=1, mod_value=0)),
        cli_op(pkg, "ext example36 m2 m2", "ext",
               ["ext", "--ring", "example36.json", "--module", "m2.json",
                "--other", "m2.json", "--degree", "1", "--json"]),
        cli_op(pkg, "resolve example36 m2", "resolve",
               ["resolve", "--ring", "example36.json", "--module", "m2.json",
                "--depth", "4", "--out", res_path], out_file=res_path),
        cli_op(pkg, "ext example36 resolution m2", "ext",
               ["ext", "--ring", "example36.json", "--resolution", res_path,
                "--other", "m2.json", "--degree", "1", "--json"]),
        cli_op(pkg, "ssemisimple example36 S1s", "ssemisimple",
               ["ssemisimple", "--ring", "example36.json", "--multset", "S1s.json",
                "--json"], _expect_fields(verdict=True, witness="e1")),
        cli_op(pkg, "storsion example36 S1s m2", "storsion",
               ["storsion", "--ring", "example36.json", "--multset", "S1s.json",
                "--module", "m2.json", "--json"]),
        cli_op(pkg, "localprofile example36 m2", "localprofile",
               ["localprofile", "--ring", "example36.json", "--module", "m2.json",
                "--bound", "6", "--json"]),
        cli_op(pkg, "sid example36 S1s m2", "sid",
               ["sid", "--ring", "example36.json", "--multset", "S1s.json",
                "--module", "m2.json", "--bound", "8", "--json"]),
        cli_op(pkg, "sgldim example36 S1s", "sgldim",
               ["sgldim", "--ring", "example36.json", "--multset", "S1s.json",
                "--bound", "4", "--trials", "4", "--seed", str(seed), "--json"],
               _expect_fields(candidate=0)),
    ]


def _verify_op(pkg, entry, seed):
    def expect(doc):
        if doc.get("failures") != 0:
            return "%s reported %s failures" % (entry, doc.get("failures"))
        reset_caches(pkg)
        api = pkg.sr.verify(pkg.sr.TheoremCase(entry, trials=CLI_VERIFY_TRIALS,
                                               seed=seed)).to_json()
        return None if api == doc else "CLI report differs from the API report"

    return cli_op(pkg, "verify %s seed %d" % (entry, seed), "verify",
                  ["verify", entry, "--trials", str(CLI_VERIFY_TRIALS),
                   "--seed", str(seed), "--json"], expect)


def _generated_queries(pkg, rng, name, ring, workdir, index):
    """spd, sid, storsion, ext and localprofile on generated documents.

    Each answer is compared with the public API's answer on the same
    documents, parsed by the public spec readers.
    """
    sr = pkg.sr
    mod = pkg.instances.random_module(ring, rng, max_rank=2)
    other = pkg.instances.random_module(ring, rng, max_rank=1)
    s_set = pkg.instances.random_multset(ring, rng)
    paths, docs, digest = _documents(
        workdir, **{"ring%d" % index: sr.ring_to_spec(ring),
                    "multset%d" % index: sr.multset_to_spec(s_set),
                    "module%d" % index: sr.module_to_spec(mod),
                    "other%d" % index: sr.module_to_spec(other)})
    ring_path, s_path, mod_path, other_path = paths.values()
    bound = 4
    degree = rng.randint(0, 2)

    def load(path, reader, *lead):
        with open(path) as fh:
            return reader(*lead, json.load(fh))

    def api_ring():
        return load(ring_path, sr.ring_from_spec)

    def api_walk(walk):
        def expect(doc):
            r = api_ring()
            res = walk(load(mod_path, sr.module_from_spec, r),
                       load(s_path, sr.multset_from_spec, r), bound)
            cert = res.certificate
            want = {"value": _dim_json(res.value),
                    "witness": cert.s.label() if cert is not None else None,
                    "levels": len(res.levels)}
            return _expect_fields(**want)(doc)
        return expect

    def api_storsion(doc):
        r = api_ring()
        w = sr.is_uniformly_s_torsion(load(mod_path, sr.module_from_spec, r),
                                      load(s_path, sr.multset_from_spec, r))
        return _expect_fields(verdict=w.verdict, witness=w.witness.label()
                              if w.witness is not None else None)(doc)

    def api_ext(doc):
        r = api_ring()
        got = sr.ext(load(mod_path, sr.module_from_spec, r),
                     load(other_path, sr.module_from_spec, r), degree)
        return _expect_fields(dim=got.dim)(doc)

    def api_profile(doc):
        r = api_ring()
        prof = sr.local_profile(load(mod_path, sr.module_from_spec, r), "pd", bound)
        return _expect_fields(classical=_dim_json(prof.classical.value))(doc)

    base = ["--ring", ring_path]
    tag = "generated %s #%d %s" % (name, index, digest)
    queries = [
        ("spd", ["--multset", s_path, "--module", mod_path, "--bound", str(bound)],
         api_walk(sr.s_pd)),
        ("sid", ["--multset", s_path, "--module", mod_path, "--bound", str(bound)],
         api_walk(sr.s_id)),
        ("storsion", ["--multset", s_path, "--module", mod_path], api_storsion),
        ("ext", ["--module", mod_path, "--other", other_path, "--degree", str(degree)],
         api_ext),
        ("localprofile", ["--module", mod_path, "--bound", str(bound)], api_profile),
    ]
    return [cli_op(pkg, "%s %s" % (cmd, tag), cmd, [cmd] + base + rest + ["--json"],
                   expect, docs=docs)
            for cmd, rest, expect in queries]


def _generated_factorcheck(pkg, rng, workdir, index):
    sr = pkg.sr
    a, mod, gens = _zmod_case(sr, rng)
    paths, docs, digest = _documents(
        workdir, **{"zmodule%d" % index: sr.z_module_to_spec(mod),
                    "zmultset%d" % index: {"generators": list(gens)}})
    mod_path, s_path = paths.values()

    def expect(doc):
        if doc.get("verdict") == "fail":
            return "factorcheck failed: %s" % doc.get("statement")
        with open(mod_path) as fh, open(s_path) as gh:
            rep = sr.factor_ring_check(a, sr.z_module_from_spec(json.load(fh)),
                                       sr.z_multset_from_spec(json.load(gh)), bound=12)
        return _expect_fields(verdict=rep.verdict, z_value=_dim_json(rep.z_result.value),
                              mod_value=_dim_json(rep.bar_result.value))(doc)

    return cli_op(pkg, "factorcheck generated #%d a=%d %s" % (index, a, digest),
                  "factorcheck", ["factorcheck", "--a", str(a), "--multset", s_path,
                                  "--module", mod_path, "--json"], expect, docs=docs)


# -- integer_backend ------------------------------------------------------------

Z_BOUND = 4
Z_OPS = 8000
Z_MODULI = (4, 6, 8, 9, 10, 12, 18)
Z_PRIMES = (2, 3, 5, 7)


def _prime_factors(n):
    out, d = [], 2
    while d * d <= n:
        while n % d == 0:
            out.append(d)
            n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def invariant_factors(orders):
    """Invariant factors (d1 | d2 | ...) of a direct sum of cyclic groups."""
    powers = {}
    for n in orders:
        for q in set(_prime_factors(n)):
            k = 0
            while n % q == 0:
                n //= q
                k += 1
            powers.setdefault(q, []).append(q ** k)
    length = max((len(v) for v in powers.values()), default=0)
    factors = [1] * length
    for q, vals in powers.items():
        vals.sort(reverse=True)
        for i, v in enumerate(vals):
            factors[length - 1 - i] *= v
    return tuple(f for f in factors if f > 1)


def ext_closed_form(src, tgt, degree):
    """(free rank, invariant factors) of Ext^degree_Z(src, tgt), gcd rule.

    src and tgt are (free rank, cyclic orders); Hom(Z/d, Z/e) and
    Ext^1(Z/d, Z/e) are both Z/gcd(d, e), Ext^1(Z/d, Z) is Z/d, and Ext
    vanishes from degree 2 on.
    """
    (fa, ta), (fb, tb) = src, tgt
    if degree == 0:
        orders = [e for e in tb for _ in range(fa)]
        orders += [math.gcd(d, e) for d in ta for e in tb]
        return fa * fb, invariant_factors(orders)
    if degree == 1:
        orders = [d for d in ta for _ in range(fb)]
        orders += [math.gcd(d, e) for d in ta for e in tb]
        return 0, invariant_factors(orders)
    return 0, ()


def scrambled_rows(rng, free_rank, orders):
    """Presentation rows of Z^free_rank + sum Z/d, scrambled unimodularly.

    Starts from the diagonal relation matrix (generators x relations) and
    applies a few elementary row and column operations with small
    multipliers, which keep the cokernel up to isomorphism.
    """
    gens = free_rank + len(orders)
    rels = len(orders)
    rows = [[0] * rels for _ in range(gens)]
    for j, d in enumerate(orders):
        rows[free_rank + j][j] = d
    for _ in range(3):
        if gens > 1:
            i, k = rng.sample(range(gens), 2)
            c = rng.choice((-1, 1))
            rows[i] = [x + c * y for x, y in zip(rows[i], rows[k])]
        if rels > 1:
            i, k = rng.sample(range(rels), 2)
            c = rng.choice((-1, 1))
            for row in rows:
                row[i] += c * row[k]
    return rows


def _z_orders(rng, modulus=None):
    if modulus is None:
        return [rng.choice((2, 3, 4, 5, 6, 8, 9, 12)) for _ in range(rng.randint(0, 2))]
    divisors = [d for d in range(2, modulus + 1) if modulus % d == 0]
    return [rng.choice(divisors) for _ in range(rng.randint(1, 2))]


def _generators_for(rng, a):
    """Generators of S over Z, each coprime to a.

    factor_ring_check itself only rejects S when some product of the
    generators is divisible by a; a generator sharing a prime with a can
    still kill M, and then its +1 identity reports `fail` (a=18, M=Z/3,
    S=<3>).  Coprime generators are the hypothesis the registry's
    prop-4.3 trials use.
    """
    choices = [q for q in Z_PRIMES if math.gcd(q, a) == 1]
    return tuple(sorted(set(rng.choice(choices) for _ in range(rng.randint(1, 2)))))


def _zmod_case(sr, rng):
    """(a, Z/a-module, generators over Z) with the factor-ring hypotheses."""
    a = rng.choice(Z_MODULI)
    orders = _z_orders(rng, a)
    rows = scrambled_rows(rng, 0, orders)
    return a, sr.z_module("Z_mod", rows, m=a), _generators_for(rng, a)


def integer_backend(pkg, seed: int, workdir: str) -> Workload:
    """The five integer-backend calls in turn, on scrambled presentations.

    Torsion orders stay at most 18 and S has at most two prime generators,
    so the per-candidate section searches stay short (an S-orbit of 10,006
    residues costs 6 s per z_s_pd over Z).
    """
    sr = pkg.sr
    rng = random.Random("integer_backend:%d" % seed)
    ops = []
    for index in range(Z_OPS):
        kind = ("factor_ring_check", "z_s_pd_Z", "z_s_pd_Za", "z_ext",
                "change_of_rings_check")[index % 5]
        if kind in ("factor_ring_check", "change_of_rings_check", "z_s_pd_Za"):
            a, mod, gens = _zmod_case(sr, rng)
            label = "%s a=%d rows=%s S=%s" % (kind, a, mod.rows, gens)
            if kind == "z_s_pd_Za":
                s_set = sr.z_multset("Z_mod", gens, m=a)
                ops.append(Op(label, kind, prepare=lambda m=mod, s=s_set: (m, s, Z_BOUND),
                              run=lambda args: sr.z_s_pd(*args), verify=_no_check,
                              describe=_z_dim_summary))
            else:
                s_set = sr.z_multset("Z", gens)
                ops.append(Op(label, kind,
                              prepare=lambda a=a, m=mod, s=s_set: (a, m, s, Z_BOUND),
                              run=lambda args, k=kind: getattr(sr, k)(*args),
                              verify=_report_not_failed, describe=_report_summary))
        elif kind == "z_s_pd_Z":
            free, orders = rng.randint(0, 1), _z_orders(rng)
            mod = sr.z_module("Z", scrambled_rows(rng, free, orders))
            gens = tuple(sorted(set(rng.choice(Z_PRIMES) for _ in range(rng.randint(1, 2)))))
            ops.append(Op("z_s_pd Z orders=%s free=%d S=%s" % (orders, free, gens), kind,
                          prepare=lambda m=mod, g=gens: (m, sr.z_multset("Z", g), Z_BOUND),
                          run=lambda args: sr.z_s_pd(*args),
                          verify=_z_pd_oracle(orders, gens), describe=_z_dim_summary))
        else:
            src = (rng.randint(0, 1), _z_orders(rng))
            tgt = (rng.randint(0, 1), _z_orders(rng))
            degree = rng.randint(0, 2)
            m_src = sr.z_module("Z", scrambled_rows(rng, *src))
            m_tgt = sr.z_module("Z", scrambled_rows(rng, *tgt))
            want = ext_closed_form(src, tgt, degree)
            ops.append(Op("z_ext Ext^%d(%s, %s)" % (degree, src, tgt), kind,
                          prepare=lambda s=m_src, t=m_tgt, d=degree: (s, t, d),
                          run=lambda args: sr.z_ext(*args),
                          verify=_z_ext_oracle(want),
                          describe=lambda res: ("%s" % (res.structure(),), False)))
    return Workload(pkg, ops, reset_per_op=True, round_size=5)


def _report_not_failed(args, rep):
    return "verdict fail: %s" % rep.statement if rep.verdict == "fail" else None


def _report_summary(rep):
    return "%s|%s" % (rep.verdict, rep.statement), rep.verdict == "vacuous"


def _z_dim_summary(res):
    return "%s|%d" % (res.value, len(res.levels)), not res.value.known


def _z_pd_oracle(orders, gens):
    """S-pd over Z is 0 when some product of generators kills the torsion, else 1."""
    exponent = math.lcm(*orders) if orders else 1
    killable = all(any(g % q == 0 for g in gens) for q in set(_prime_factors(exponent)))
    want = 0 if killable else 1

    def verify(args, res):
        if not res.value.known or res.value.value != want:
            return "z_s_pd gave %s, closed form %d" % (res.value, want)
        return None
    return verify


def _z_ext_oracle(want):
    def verify(args, res):
        got = res.structure()
        return None if got == want else "z_ext gave %s, closed form %s" % (got, want)
    return verify


WORKLOADS = {
    "registry_sweep": registry_sweep,
    "fp_deep_walks": fp_deep_walks,
    "cli_queries": cli_queries,
    "integer_backend": integer_backend,
}
