import hashlib
import json
import os
import pathlib
import shutil
import subprocess
import sys

import pytest
from conftest import square_zero_ring

import srelhom
from srelhom.cli import build_parser, main
from srelhom.modules import module_to_spec, regular_module
from srelhom.rings import ring_to_spec, truncated_polynomial

FIXTURES = pathlib.Path(__file__).resolve().parents[1] / "src/srelhom/fixtures"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    return code, json.loads(out), err


def test_spd_known_value_json(capsys):
    code, doc, _ = run_json(capsys, "spd", "--ring", "example36.json",
                            "--multset", "S1s.json", "--module", "m2.json",
                            "--bound", "8")
    assert code == 0
    assert doc["value"] == 0
    assert doc["witness"] == "e1"
    assert doc["bound"] == 8


def test_spd_beyond_bound(capsys):
    code, out, _ = run(capsys, "spd", "--ring", "example36.json",
                       "--multset", "trivial.json", "--module", "m2.json",
                       "--bound", "8")
    assert code == 0
    assert ">8" in out
    code, doc, _ = run_json(capsys, "spd", "--ring", "example36.json",
                            "--multset", "trivial.json", "--module", "m2.json",
                            "--bound", "8")
    assert doc["value"] == ">8"
    assert doc["witness"] is None


def test_factorcheck_identity_line(capsys):
    code, out, _ = run(capsys, "factorcheck", "--a", "3",
                       "--multset", "gen2.json", "--module", "z3.json")
    assert code == 0
    assert "+1 identity holds: 1 = 0 + 1" in out


def test_factorcheck_rejects_divisible_a(tmp_path, capsys):
    # a = 4 with S = <2>: a divides 2*2, so the hypothesis itself fails
    z4 = tmp_path / "z4.json"
    z4.write_text(json.dumps(
        {"kind": "z_presentation", "ring": "Z_mod", "m": 4, "matrix": [[4]]}))
    code, out, err = run(capsys, "factorcheck", "--a", "4",
                         "--multset", "gen2.json", "--module", str(z4))
    assert code == 2
    assert "divides" in err


def test_table_and_json_agree_on_numbers(tmp_path, capsys):
    args = ("spd", "--ring", "example36.json", "--multset", "S1s.json",
            "--module", "m2.json", "--bound", "6")
    _, table, _ = run(capsys, *args)
    _, doc, _ = run_json(capsys, *args)
    assert "S-pd = %s (bound %d)" % (doc["value"], doc["bound"]) in table
    assert "witness %s" % doc["witness"] in table

    args = ("sgldim", "--ring", "f2t2.json", "--multset", "trivial.json",
            "--bound", "4", "--trials", "5", "--seed", "0")
    _, table, _ = run(capsys, *args)
    _, doc, _ = run_json(capsys, *args)
    assert doc == {"candidate": ">4", "witness": None, "trials": 5, "seed": 0}
    assert "S-gl.dim = %s (bound 4, %d trials)" % (doc["candidate"], doc["trials"]) in table

    args = ("sgldim", "--ring", "example36.json", "--multset", "S1s.json",
            "--bound", "4", "--trials", "5", "--seed", "0")
    _, table, _ = run(capsys, *args)
    _, doc, _ = run_json(capsys, *args)
    assert doc["candidate"] == 0
    assert "S-gl.dim = 0" in table and "witness %s" % doc["witness"] in table

    quot = tmp_path / "regularquot.json"
    quot.write_text(json.dumps(
        {"kind": "action", "dim": 1, "action": {"1": [1], "t": [0]}}))
    args = ("ext", "--ring", "f2t2.json", "--module", str(quot),
            "--other", str(quot), "--degree", "1")
    _, table, _ = run(capsys, *args)
    _, doc, _ = run_json(capsys, *args)
    assert "dimension %d" % doc["dim"] in table


def test_ssemisimple_witness(capsys):
    code, doc, _ = run_json(capsys, "ssemisimple", "--ring", "example36.json",
                            "--multset", "S1s.json")
    assert code == 0 and doc == {"verdict": True, "witness": "e1"}
    code, doc, _ = run_json(capsys, "ssemisimple", "--ring", "example36.json",
                            "--multset", "trivial.json")
    assert code == 0 and doc["verdict"] is False


def test_storsion(capsys):
    code, doc, _ = run_json(capsys, "storsion", "--ring", "example36.json",
                            "--multset", "S1s.json", "--module", "m2.json")
    assert code == 0 and doc == {"verdict": True, "witness": "e1"}
    code, doc, _ = run_json(capsys, "storsion", "--ring", "example36.json",
                            "--multset", "trivial.json", "--module", "m2.json")
    assert doc["verdict"] is False


def test_localprofile_agreement(capsys):
    code, doc, _ = run_json(capsys, "localprofile", "--ring", "example36.json",
                            "--module", "m2.json", "--bound", "6")
    assert code == 0
    assert doc["formula_ok"] is True
    assert len(doc["entries"]) == 2


def test_spd_above_the_enumeration_cap(tmp_path, capsys):
    # F2[t]/(t^17) has 2^17 elements; S-pd needs only the radical and the
    # local profile only the primitive idempotents, while a positive
    # ssemisimple confirms itself on the ideal lattice and hits the cap
    ring = tmp_path / "t17.json"
    ring.write_text(json.dumps(ring_to_spec(truncated_polynomial(2, 17))))
    labels = ["1", "t"] + ["t%d" % n for n in range(2, 17)]
    simple = tmp_path / "k.json"
    simple.write_text(json.dumps({"kind": "action", "dim": 1, "action": {
        label: [1 if label == "1" else 0] for label in labels}}))
    code, doc, _ = run_json(capsys, "spd", "--ring", str(ring), "--multset",
                            "trivial.json", "--module", str(simple), "--bound", "4")
    assert code == 0 and doc["value"] == ">4"
    code, doc, _ = run_json(capsys, "localprofile", "--ring", str(ring),
                            "--module", str(simple), "--bound", "4")
    rad = "(" + ", ".join(labels[1:]) + ")"
    assert code == 0 and doc == {"kind": "pd", "classical": ">4", "sup": ">4",
                                 "formula_ok": True, "entries": [[rad, ">4"]]}
    # S holds t, so e_S = 0 kills the radical and the answer is "yes"
    s_set = tmp_path / "t.json"
    s_set.write_text(json.dumps({"kind": "multset", "seeds": [[0, 1] + [0] * 15]}))
    code, _, err = run(capsys, "ssemisimple", "--ring", str(ring), "--multset", str(s_set))
    assert code == 2 and "too large to enumerate" in err


def test_spd_and_sid_differ_over_a_ring_that_is_not_self_injective(tmp_path, capsys):
    # every pool ring is Frobenius, where S-pd and S-id agree; over
    # F2[x, y]/(x, y)^2 the ring itself is free but not injective
    ring = square_zero_ring()
    (tmp_path / "ring.json").write_text(json.dumps(ring_to_spec(ring)))
    (tmp_path / "r.json").write_text(json.dumps(module_to_spec(regular_module(ring))))
    base = ("--ring", str(tmp_path / "ring.json"), "--multset", "trivial.json",
            "--module", str(tmp_path / "r.json"), "--bound", "12")
    code, doc, _ = run_json(capsys, "spd", *base)
    assert code == 0 and (doc["value"], doc["witness"], doc["levels"]) == (0, "1", 1)
    code, doc, _ = run_json(capsys, "sid", *base)
    assert code == 0 and (doc["value"], doc["witness"], doc["levels"]) == (">12", None, 1)


def test_resolution_round_trip(tmp_path, capsys):
    out = tmp_path / "res.json"
    code, _, _ = run(capsys, "resolve", "--ring", "example36.json",
                     "--module", "m2.json", "--depth", "4",
                     "--out", str(out))
    assert code == 0
    exported = json.loads(out.read_text())
    assert exported["kind"] == "resolution"
    for degree in ("0", "1", "2", "3"):
        _, direct, _ = run_json(capsys, "ext", "--ring", "example36.json",
                                "--module", "m2.json", "--other", "m2.json",
                                "--degree", degree)
        _, refed, _ = run_json(capsys, "ext", "--ring", "example36.json",
                               "--resolution", str(out), "--other", "m2.json",
                               "--degree", degree)
        assert direct == refed


def test_seed_required_in_json_mode(capsys):
    code, _, err = run(capsys, "sgldim", "--ring", "f2.json",
                       "--multset", "trivial.json", "--json")
    assert code == 2 and "--seed" in err
    code, _, err = run(capsys, "verify", "lemma-1.1", "--trials", "2", "--json")
    assert code == 2 and "--seed" in err
    # table mode runs without a seed
    code, _, _ = run(capsys, "verify", "lemma-1.1", "--trials", "2")
    assert code == 0


def test_verify_single_and_all(capsys):
    code, doc, _ = run_json(capsys, "verify", "example-3.6",
                            "--trials", "3", "--seed", "0")
    assert code == 0
    assert doc["failures"] == 0
    assert sorted(doc) == ["counterexamples", "failures", "passes",
                           "seed", "theorem", "trials", "vacuous"]
    code, doc, _ = run_json(capsys, "verify", "all",
                            "--trials", "2", "--seed", "0")
    assert code == 0
    assert doc["failures"] == 0
    assert len(doc["reports"]) == 17


def test_verify_all_output_is_reproducible(capsys):
    args = ("verify", "all", "--trials", "2", "--seed", "1", "--json")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_missing_file_diagnostic(capsys):
    code, _, err = run(capsys, "spd", "--ring", "nosuch.json",
                       "--multset", "trivial.json", "--module", "m2.json")
    assert code == 2 and "nosuch.json" in err


def test_invalid_json_diagnostic(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "spd", "--ring", str(bad),
                       "--multset", "trivial.json", "--module", "m2.json")
    assert code == 2 and "invalid JSON" in err


def test_nonassociative_ring_names_triple(tmp_path, capsys):
    doc = json.loads((FIXTURES / "f2t3.json").read_text())
    doc["mul"]["t*t2"] = [0, 1, 0]
    bad = tmp_path / "bad_ring.json"
    bad.write_text(json.dumps(doc))
    code, _, err = run(capsys, "spd", "--ring", str(bad),
                       "--multset", "trivial.json", "--module", "m2.json")
    assert code == 2
    assert "not associative" in err and "'t'" in err
    assert "bad_ring.json" in err


def test_bad_module_action_names_element(tmp_path, capsys):
    doc = json.loads((FIXTURES / "m2.json").read_text())
    doc["action"]["f"] = doc["action"]["e2"]
    bad = tmp_path / "bad_module.json"
    bad.write_text(json.dumps(doc))
    code, _, err = run(capsys, "spd", "--ring", "example36.json",
                       "--multset", "trivial.json", "--module", str(bad))
    assert code == 2
    assert "representation property" in err and "f" in err
    assert "bad_module.json" in err


def test_fixture_dir_env_override(tmp_path, capsys, monkeypatch):
    shutil.copy(FIXTURES / "f2.json", tmp_path / "myring.json")
    shutil.copy(FIXTURES / "trivial.json", tmp_path / "mymult.json")
    monkeypatch.setenv("SRELHOM_FIXTURES", str(tmp_path))
    code, doc, _ = run_json(capsys, "ssemisimple", "--ring", "myring.json",
                            "--multset", "mymult.json")
    assert code == 0 and doc["verdict"] is True


def test_unknown_subcommand_and_bad_flags_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["verify", "lemma-9.9"])
    assert exc.value.code == 2


def test_ext_requires_module_or_resolution(capsys):
    code, _, err = run(capsys, "ext", "--ring", "f2.json",
                       "--other", "m2.json", "--degree", "0")
    assert code == 2 and "--module" in err


def exported_resolution(tmp_path, capsys, depth):
    out = tmp_path / "res.json"
    code, _, _ = run(capsys, "resolve", "--ring", "example36.json",
                     "--module", "m2.json", "--depth", str(depth),
                     "--out", str(out))
    assert code == 0
    return json.loads(out.read_text())


def ext_from_document(tmp_path, capsys, doc):
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(doc))
    return run(capsys, "ext", "--ring", "example36.json",
               "--resolution", str(path), "--other", "m2.json", "--degree", "0")


def test_negative_resolution_depth_is_rejected(tmp_path, capsys):
    code, _, err = run(capsys, "resolve", "--ring", "example36.json",
                       "--module", "m2.json", "--depth", "-1")
    assert code == 2 and "depth must be nonnegative" in err
    # the document an unchecked export of depth -1 would have written
    doc = exported_resolution(tmp_path, capsys, 0)
    doc.update(depth=-1, ranks=[])
    code, _, err = ext_from_document(tmp_path, capsys, doc)
    assert code == 2 and "/depth:" in err


def test_negative_resolution_rank_is_rejected(tmp_path, capsys):
    doc = exported_resolution(tmp_path, capsys, 1)
    doc["ranks"][1] = -1
    code, _, err = ext_from_document(tmp_path, capsys, doc)
    assert code == 2 and "/ranks:" in err


def spd_with_module(tmp_path, capsys, doc):
    path = tmp_path / "edited_module.json"
    path.write_text(json.dumps(doc))
    return run(capsys, "spd", "--ring", "example36.json",
               "--multset", "trivial.json", "--module", str(path))


def test_boolean_module_entries_are_rejected(tmp_path, capsys):
    doc = json.loads((FIXTURES / "m2.json").read_text())
    doc["action"]["e2"] = [True]
    code, _, err = spd_with_module(tmp_path, capsys, doc)
    assert code == 2 and "/action/e2:" in err


def test_boolean_module_dimension_is_rejected(tmp_path, capsys):
    doc = json.loads((FIXTURES / "m2.json").read_text())
    doc["dim"] = True
    code, _, err = spd_with_module(tmp_path, capsys, doc)
    assert code == 2 and "/dim:" in err


def test_boolean_presentation_rank_is_rejected(tmp_path, capsys):
    doc = {"kind": "presentation", "free_rank": True, "relations": []}
    code, _, err = spd_with_module(tmp_path, capsys, doc)
    assert code == 2 and "/free_rank:" in err
    doc = {"kind": "presentation", "free_rank": 1, "relations": [[[True, 0, 0]]]}
    code, _, err = spd_with_module(tmp_path, capsys, doc)
    assert code == 2 and "/relations/0/0:" in err


def test_boolean_ring_entries_are_rejected(tmp_path, capsys):
    base = json.loads((FIXTURES / "example36.json").read_text())
    for field, value in (("unit", [True, True, False]), ("p", True)):
        doc = dict(base, **{field: value})
        bad = tmp_path / "bool_ring.json"
        bad.write_text(json.dumps(doc))
        code, _, err = run(capsys, "spd", "--ring", str(bad),
                           "--multset", "trivial.json", "--module", "m2.json")
        assert code == 2 and "/%s:" % field in err
    doc = json.loads(json.dumps(base))
    doc["mul"]["e1*e1"] = [True, False, False]
    bad = tmp_path / "bool_ring.json"
    bad.write_text(json.dumps(doc))
    code, _, err = run(capsys, "spd", "--ring", str(bad),
                       "--multset", "trivial.json", "--module", "m2.json")
    assert code == 2 and "/mul/e1*e1:" in err


BIG = 2 ** 70  # past the int64 range; even, so it reduces to 0 mod 2


def test_bad_characteristic_is_rejected_before_reduction(tmp_path, capsys):
    base = json.loads((FIXTURES / "example36.json").read_text())
    for p, message in ((BIG, "exceeds 65521"), (0, "not a prime")):
        bad = tmp_path / "bad_p.json"
        bad.write_text(json.dumps(dict(base, p=p)))
        code, _, err = run(capsys, "spd", "--ring", str(bad),
                           "--multset", "trivial.json", "--module", "m2.json")
        assert code == 2 and message in err


def test_huge_ring_entries_reduce_mod_p(tmp_path, capsys):
    args = ("spd", "--multset", "S1s.json", "--module", "m2.json", "--bound", "8")
    _, want, _ = run_json(capsys, *args, "--ring", "example36.json")
    doc = json.loads((FIXTURES / "example36.json").read_text())
    doc["mul"]["e1*e1"] = [BIG + 1, 0, 0]
    doc["unit"] = [BIG + 1, 1, 0]
    ring = tmp_path / "huge_mul.json"
    ring.write_text(json.dumps(doc))
    code, got, _ = run_json(capsys, *args, "--ring", str(ring))
    assert code == 0 and got == want
    # e1*e1 = 0 breaks the unit law: an input error, not a traceback
    doc["mul"]["e1*e1"] = [BIG, 0, 0]
    ring.write_text(json.dumps(doc))
    code, _, err = run(capsys, *args, "--ring", str(ring))
    assert code == 2 and "error:" in err


def test_huge_module_entries_reduce_mod_p(tmp_path, capsys):
    _, want, _ = run_json(capsys, "spd", "--ring", "example36.json",
                          "--multset", "S1s.json", "--module", "m2.json")
    doc = json.loads((FIXTURES / "m2.json").read_text())
    doc["action"]["e2"] = [BIG + 1]
    path = tmp_path / "huge_action.json"
    path.write_text(json.dumps(doc))
    code, got, _ = run_json(capsys, "spd", "--ring", "example36.json",
                            "--multset", "S1s.json", "--module", str(path))
    assert code == 0 and got == want
    doc["action"]["e2"] = [BIG]
    code, _, err = spd_with_module(tmp_path, capsys, doc)
    assert code == 2 and "error:" in err
    doc = {"kind": "presentation", "free_rank": 1, "relations": [[[BIG + 1, 0, 0]]]}
    code, _, _ = spd_with_module(tmp_path, capsys, doc)
    assert code == 0


def test_huge_multset_seeds_reduce_mod_p(tmp_path, capsys):
    args = ("spd", "--ring", "example36.json", "--module", "m2.json")
    _, want, _ = run_json(capsys, *args, "--multset", "S1s.json")
    path = tmp_path / "huge_seeds.json"
    path.write_text(json.dumps({"kind": "multset", "seeds": [[BIG + 1, 0, 0]]}))
    code, got, _ = run_json(capsys, *args, "--multset", str(path))
    assert code == 0 and got == want


def test_negative_sgldim_trials_exit_2(capsys):
    code, _, err = run(capsys, "sgldim", "--ring", "f2t2.json",
                       "--multset", "trivial.json", "--trials", "-1")
    assert code == 2 and "trials" in err
    code, _, err = run(capsys, "sgldim", "--ring", "f2t2.json",
                       "--multset", "trivial.json", "--bound", "-1", "--trials", "0")
    assert code == 2 and "bound" in err


def test_package_runs_as_a_module():
    src = str(pathlib.Path(srelhom.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-m", "srelhom", "spd",
                           "--ring", "example36.json", "--multset", "S1s.json",
                           "--module", "m2.json", "--json"],
                          capture_output=True, env=env, check=False)
    assert done.returncode == 0
    assert json.loads(done.stdout)["witness"] == "e1"


def lone_call(*argv):
    """Exit code and stdout of one command in a fresh interpreter."""
    src = str(pathlib.Path(srelhom.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-m", "srelhom", *argv],
                         capture_output=True, text=True, check=False,
                         env=dict(os.environ, PYTHONPATH=src))
    return out.returncode, out.stdout


def test_back_to_back_calls_match_lone_calls(capsys):
    # the parser is built once per process; reusing it, also after a
    # parse error, must not change what any call prints
    assert build_parser() is build_parser()
    spd = ("spd", "--ring", "example36.json", "--multset", "S1s.json",
           "--module", "m2.json", "--bound", "8", "--json")
    bad = ("spd", "--ring", "example36.json", "--no-such-flag")
    lemma = ("verify", "lemma-1.1", "--trials", "5", "--seed", "0", "--json")
    in_process = []
    for argv in (spd, bad, lemma, spd):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        in_process.append((code, capsys.readouterr().out))
    assert in_process[1] == (2, "")
    lone = {argv: lone_call(*argv) for argv in (spd, bad, lemma)}
    assert in_process == [lone[argv] for argv in (spd, bad, lemma, spd)]


E36 = ("--ring", "example36.json")
PINNED = [
    (("spd", *E36, "--multset", "S1s.json", "--module", "m2.json", "--bound", "8"),
     "35e7f861b1a99b7fb8d9069f827565ca45e89f032a820b14f90850992f3a99c2",
     "b7d4c0e7213f66ea1d1f890c458c632afaaf59c5aba026de0382faeac3dd7995"),
    (("spd", *E36, "--multset", "trivial.json", "--module", "m2.json", "--bound", "8"),
     "bca12aaab5383368ba5cef763451808c5b6245fbaa89aeaee13a82077800c47d",
     "50d0f167d929fa748e3531676ec3f0d7468ccdc0541a2c3d6dda0a9e5a9a5cfd"),
    (("sid", *E36, "--multset", "S1s.json", "--module", "m2.json", "--bound", "8"),
     "f76ed5633aef8324b740ef7afa5f2ec4eb431fb78912a7a7ef416958edd654a9",
     "8511564751dc642bac1c8db2107df66fa8b70dfa2c659be965b5ab31615b1066"),
    (("ext", *E36, "--module", "m2.json", "--other", "m2.json", "--degree", "1"),
     "be43396f98d43a30310edc6cfda37b273e574db0ef6835a8a953cbd68ffb0118",
     "55ae2664e9c26025029c04d42bf5632c7d66a227e54e0abe2a3b8717a91b0bdb"),
    # ranks [1, 1, 1, 1, 1]: one generator per level covers every block
    (("resolve", *E36, "--module", "m2.json", "--depth", "4"),
     "46398c61355138808767d233fe0bd7e597afa88780fe927d94769d84112506a3",
     "46398c61355138808767d233fe0bd7e597afa88780fe927d94769d84112506a3"),
    (("ssemisimple", *E36, "--multset", "S1s.json"),
     "2a89e4faa7b325ace7d9cdbacb14fa6ed619177210d57d6d9e09ff715aca74f6",
     "eddace6909a4f8ecf53523f96998a01aa2f4bff0b73c98b8408a896ecbc0c960"),
    (("storsion", *E36, "--multset", "S1s.json", "--module", "m2.json"),
     "1899bbb31960ca69e95e6a045b12fb932877b9dee718dd7c5c8254db1fcbc896",
     "eddace6909a4f8ecf53523f96998a01aa2f4bff0b73c98b8408a896ecbc0c960"),
    (("localprofile", *E36, "--module", "m2.json", "--bound", "6"),
     "604e278ab696ff0632578599818d61dad9711289265700e2dc9f29dc965879aa",
     "5ba675f913bb3e98697b1706de3ac83cb441704301160814cfe163f06102620c"),
    (("sgldim", *E36, "--multset", "S1s.json", "--bound", "4", "--trials", "5",
      "--seed", "0"),
     "d71e9c4ae9db4dcfad42ec1f2c28e134870e3edf29baf95545d477b6ad5d1e08",
     "36835ffcba37ccd7f7f666f746fb940a9887c7310cfe0a82f9c53d930ee36a9a"),
    (("factorcheck", "--a", "3", "--multset", "gen2.json", "--module", "z3.json"),
     "27eb44ca13531dff98f8618168f8628687da1815873e3704b7f33099c825dfbe",
     "f29a264fc7fe6450e84e047385ecdd08182247728dbba7e8598aa7daa4c83325"),
]


@pytest.mark.parametrize("argv, table_sha, json_sha", PINNED,
                         ids=[" ".join(a for a in argv if not a.startswith("--"))
                              for argv, _, _ in PINNED])
def test_fixture_outputs_are_pinned(capsys, argv, table_sha, json_sha):
    # sha256 of stdout, pinned from the README and fixture commands; a
    # change here is a change of the output contract
    for extra, want in (((), table_sha), (("--json",), json_sha)):
        code, out, _ = run(capsys, *argv, *extra)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == want
