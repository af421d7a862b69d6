import json
import os
import pathlib
import subprocess
import sys

import pytest

import srelhom.homology
from srelhom import gfmat
from srelhom.errors import InputError, UnknownTheorem
import srelhom.modules as modules_mod
from srelhom.modules import (
    Module,
    ModuleMap,
    direct_sum,
    dual_map,
    hom_space,
    regular_module,
    scaling_map,
)
from srelhom.rings import prime_field
import srelhom.checks as checks_mod
from srelhom.checks import (
    REGISTRY,
    TheoremCase,
    TrialOutcome,
    full_suite,
    generate_instance,
    replay,
    verify,
)

from conftest import product_ring, quotient_module

IN_SCOPE = [
    "lemma-1.1", "lemma-1.2", "theorem-1.3", "cor-1.4",
    "lemma-2.3", "prop-2.5", "prop-2.6", "cor-2.7",
    "prop-2.9", "prop-2.10", "prop-2.12",
    "prop-3.2", "cor-3.3", "cor-3.5", "example-3.6",
    "prop-4.1", "prop-4.3",
]


def test_registry_covers_exactly_the_checked_statements():
    assert list(REGISTRY) == IN_SCOPE


def test_unknown_theorem_rejected():
    with pytest.raises(UnknownTheorem):
        verify(TheoremCase("lemma-9.9"))
    with pytest.raises(UnknownTheorem):
        replay({"theorem": "nope", "trial": 0, "seed": 0,
                "bound": 4, "max_rank": 1})
    with pytest.raises(InputError):
        replay({"theorem": "lemma-1.1"})


def test_case_overrides_and_validation():
    rep = verify(TheoremCase("lemma-1.1", trials=7, seed=3, bound=5))
    assert (rep.trials, rep.seed, rep.bound) == (7, 3, 5)
    with pytest.raises(InputError):
        verify(TheoremCase("lemma-1.1", trials=-1))
    with pytest.raises(InputError):
        verify(TheoremCase("lemma-1.1", max_rank=0))


def test_report_json_schema():
    rep = verify(TheoremCase("cor-2.7", trials=5))
    doc = rep.to_json()
    assert sorted(doc) == ["counterexamples", "failures", "passes",
                           "seed", "theorem", "trials", "vacuous"]
    assert doc["trials"] == doc["passes"] + doc["failures"] + doc["vacuous"]
    json.dumps(doc)  # must be serializable as-is


@pytest.mark.parametrize("theorem", IN_SCOPE)
def test_entry_has_no_failures_on_seeded_sample(theorem):
    rep = verify(TheoremCase(theorem, trials=12))
    assert rep.failures == 0, rep.counterexamples
    assert rep.passes + rep.vacuous == 12


def test_sampled_entries_actually_decide_something():
    # vacuous-only sweeps prove nothing; every entry must pass at least
    # once in a modest sample
    for theorem in IN_SCOPE:
        rep = verify(TheoremCase(theorem, trials=25))
        assert rep.passes > 0, theorem


def test_verify_deterministic_same_process():
    a = verify(TheoremCase("prop-2.9", trials=15))
    b = verify(TheoremCase("prop-2.9", trials=15))
    assert json.dumps(a.to_json()) == json.dumps(b.to_json())


def test_full_suite_shape_and_determinism():
    a = full_suite(seed=0, trials=3)
    b = full_suite(seed=0, trials=3)
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    assert [r["theorem"] for r in a["reports"]] == IN_SCOPE
    assert a["failures"] == 0
    assert a["ok"]


def test_different_seeds_change_the_stream():
    a = verify(TheoremCase("lemma-1.1", trials=10, seed=0))
    b = verify(TheoremCase("lemma-1.1", trials=10, seed=1))
    # same verdict totals are possible, but the underlying draws differ;
    # compare through a failure-free proxy: rerun with a sabotage-free
    # entry and check dump seeds would differ
    assert a.seed != b.seed


def _zeroed_connecting(real):
    def sabotaged(hc_mid, incl, proj, ext_quot_k, ext_sub_k1):
        f = real(hc_mid, incl, proj, ext_quot_k, ext_sub_k1)
        return ModuleMap(f.source, f.target,
                         gfmat.zeros(f.target.vdim, f.source.vdim))
    return sabotaged


def test_mutation_zeroed_connecting_map_is_caught(monkeypatch):
    # sanity first: the honest engine passes
    honest = verify(TheoremCase("theorem-1.3", trials=60))
    assert honest.failures == 0
    monkeypatch.setattr(
        srelhom.homology, "_connecting_on_target",
        _zeroed_connecting(srelhom.homology._connecting_on_target))
    broken = verify(TheoremCase("theorem-1.3", trials=60))
    assert broken.failures > 0
    dump = broken.counterexamples[0]
    assert dump["theorem"] == "theorem-1.3"
    assert dump["trial_seed"] == "0:theorem-1.3:%d" % dump["trial"]
    # the dump replays to the same verdict while the defect is present
    assert replay(dump).verdict == "fail"
    monkeypatch.undo()
    # and passes once the engine is repaired
    assert replay(dump).verdict == "pass"


def test_mutation_lying_dimension_walk_is_caught(monkeypatch):
    # claim S-pd 0 whenever the walk actually exhausted its bound; the
    # trial re-verifies the terminating witness independently and must
    # reject the fabricated level
    import dataclasses
    from srelhom.dimensions import DimValue
    real = checks_mod.s_pd

    def lying(module, s_set, bound):
        res = real(module, s_set, bound)
        if not res.value.known:
            res = dataclasses.replace(res, value=DimValue.exact(0))
        return res

    monkeypatch.setattr(checks_mod, "s_pd", lying)
    broken = verify(TheoremCase("prop-2.5", trials=80))
    assert broken.failures > 0
    assert any("witness" in c["detail"] or "torsion" in c["detail"]
               for c in broken.counterexamples)
    monkeypatch.undo()
    assert replay(broken.counterexamples[0]).verdict in ("pass", "vacuous")


def test_lemma_1_1_reports_a_map_that_is_not_an_s_iso(monkeypatch):
    # s_iso_inverse's NotSIso is the verdict: the trial fails with the
    # certificate detail and dumps the map
    def not_an_iso(ring, s_set, rng, max_rank):
        reg = regular_module(ring)
        return ModuleMap.zero(reg, reg), None

    monkeypatch.setattr(checks_mod, "random_s_iso", not_an_iso)
    report = verify(TheoremCase("lemma-1.1", trials=20))
    assert report.failures > 0
    for case in report.counterexamples:
        assert case["detail"] == "constructed map failed the S-iso certificate"
        assert set(case["instances"]) == {"ring", "multset", "map"}


def test_counterexample_dump_is_json_ready():
    import srelhom.homology as H
    real = H._connecting_on_target
    try:
        H._connecting_on_target = _zeroed_connecting(real)
        broken = verify(TheoremCase("theorem-1.3", trials=60))
    finally:
        H._connecting_on_target = real
    assert broken.counterexamples
    text = json.dumps(broken.to_json())
    assert "theorem-1.3" in text


def test_generate_instance_kinds_and_determinism():
    ring = prime_field(3)
    m1 = generate_instance("module", ring, seed=5)
    m2 = generate_instance("module", ring, seed=5)
    assert (m1.vdim == m2.vdim
            and all((a == b).all() for a, b in zip(m1.actions, m2.actions)))
    f, g = generate_instance("s-exact-triple", ring, seed=1)
    assert f.target is g.source
    h, s = generate_instance("s-iso-pair", ring, seed=1)
    assert h.ring is ring and not s.is_zero()
    small, large = generate_instance("nested-multsets", ring, seed=2)
    assert set(small.labels()) <= set(large.labels())
    with pytest.raises(InputError):
        generate_instance("widget", ring)


def test_trial_outcome_verdicts_are_typed():
    rep = verify(TheoremCase("prop-4.3", trials=10))
    assert rep.passes + rep.vacuous == 10
    out = TrialOutcome("pass")
    assert out.dump is None


FRESH_REPLAY = """
import json, sys
from srelhom.checks import _memo, replay
assert not _memo
outcome = replay(json.loads(sys.argv[1]))
print(json.dumps([outcome.verdict, outcome.detail]))
"""


@pytest.mark.parametrize("theorem", ["cor-3.3", "cor-3.5", "prop-3.2",
                                     "theorem-1.3", "prop-2.6"])
def test_replay_in_a_fresh_process_matches_the_suite(theorem):
    # the first three memoize s_gldim blocks, the last two lean hardest
    # on the cached resolution levels and split systems; a replay must
    # not depend on what an earlier trial left in the memo
    entry = REGISTRY[theorem]
    dump = {"theorem": theorem, "trial": 0, "seed": 0,
            "bound": entry.bound, "max_rank": entry.max_rank}
    verify(TheoremCase(theorem, trials=3))
    in_suite = replay(dump)
    checks_mod.clear_memo()
    assert checks_mod._memo == {}
    cold = replay(dump)
    src = str(pathlib.Path(checks_mod.__file__).resolve().parents[1])
    fresh = subprocess.run([sys.executable, "-c", FRESH_REPLAY, json.dumps(dump)],
                           capture_output=True, text=True, check=False,
                           env=dict(os.environ, PYTHONPATH=src))
    assert fresh.returncode == 0, fresh.stderr
    expected = [in_suite.verdict, in_suite.detail]
    assert [cold.verdict, cold.detail] == expected
    assert json.loads(fresh.stdout) == expected


# prop-2.5 trial 5 at seed 0 draws a module of infinite S-pd, a vacuous
# trial: with every dimension exact, trials 0-2 of every entry are decided
VACUOUS_TRIAL = ("prop-2.5", 5)


def _sample_trials():
    """(verdict, detail) of trials 0-2 of every entry at seed 0, and of
    VACUOUS_TRIAL, with whatever the memo holds."""
    out = {}
    for theorem, entry in REGISTRY.items():
        extra = (VACUOUS_TRIAL[1],) if theorem == VACUOUS_TRIAL[0] else ()
        for trial in (0, 1, 2) + extra:
            outcome = replay({"theorem": theorem, "trial": trial, "seed": 0,
                              "bound": entry.bound, "max_rank": entry.max_rank})
            out[theorem, trial] = (outcome.verdict, outcome.detail)
    return out


def _registry_sample():
    """_sample_trials with the memo cold."""
    checks_mod.clear_memo()
    out = _sample_trials()
    checks_mod.clear_memo()
    return out


def test_registry_sample_is_the_same_with_a_warm_memo():
    # the second pass finds every resolution level and split system of
    # the first in the memo's content caches
    checks_mod.clear_memo()
    cold = _sample_trials()
    content = checks_mod._memo[modules_mod._CONTENT]
    assert len(content.entries) > 50
    warm = _sample_trials()
    assert checks_mod._memo[modules_mod._CONTENT] is content
    checks_mod.clear_memo()
    assert warm == cold


def _derived_tour():
    """Matrices of derived maps that the registry sample does not build."""
    ring = product_ring()
    m2 = quotient_module(ring, [[1, 0, 0], [0, 0, 1]])
    reg = regular_module(ring)
    total, injs, projs = direct_sum(m2, reg)
    homs = hom_space(reg, total)
    summed = homs[0] + homs[-1]
    composed = ModuleMap.identity(total).compose(summed).compose(projs[1])
    maps = [*homs, summed, composed, dual_map(composed),
            scaling_map(total, ring.element([1, 0, 1]))]
    return [f.matrix.tolist() for f in maps]


def test_validating_twin_gives_the_same_verdicts(monkeypatch):
    # derived maps and modules skip validation (ModuleMap._trusted and
    # _derived_module); routed through the validating constructors
    # instead, the same sample must run clean and say the same things
    trusted = _registry_sample(), _derived_tour()
    built = {"maps": 0, "modules": 0}

    def validating_map(source, target, matrix):
        built["maps"] += 1
        return ModuleMap(source, target, matrix)

    def validating_module(ring, acts):
        built["modules"] += 1
        return Module(ring, acts)

    monkeypatch.setattr(ModuleMap, "_trusted", staticmethod(validating_map))
    original = modules_mod._derived_module
    for name, mod in list(sys.modules.items()):
        if name.startswith("srelhom") and getattr(mod, "_derived_module", None) is original:
            monkeypatch.setattr(mod, "_derived_module", validating_module)
    twin = _registry_sample(), _derived_tour()
    assert built["maps"] > 1000 and built["modules"] > 100
    assert twin == trusted
    assert {verdict for verdict, _ in twin[0].values()} >= {"pass", "vacuous"}
