"""Malformed documents at every parser, and the constructors' own checks.

Each case names the parser's error class and the JSON-pointer path (or,
where a constructor speaks, the datum) that its message must contain.
The CLI reads each document kind through these parsers and exits 2 on a
malformed file, naming the file and the field.
"""

import json
import re

import numpy as np
import pytest
from conftest import product_ring

from srelhom.cli import main
from srelhom.errors import InputError, NonCommutative, RingMismatch
from srelhom.homology import resolution_from_spec
from srelhom.modules import free_module, map_from_spec, module_from_spec
from srelhom.rings import (
    FiniteAlgebra,
    direct_product,
    enumerate_ideals,
    mult_closure,
    multset_from_spec,
    prime_field,
    quotient_algebra,
    ring_from_spec,
    truncated_polynomial,
)
from srelhom.zmodules import (
    change_of_rings_check,
    z_module,
    z_module_from_spec,
    z_multset,
    z_multset_from_spec,
)

RING_DOC = {"kind": "fp_algebra", "p": 2, "basis": ["1", "t"],
            "mul": {"1*1": [1, 0], "1*t": [0, 1], "t*t": [0, 0]}, "unit": [1, 0]}


def edited(doc, **changes):
    """A copy of doc with keys replaced, or removed when the value is None."""
    out = json.loads(json.dumps(doc))
    for key, value in changes.items():
        if value is None:
            del out[key]
        else:
            out[key] = value
    return out


def raises(error, where, call):
    with pytest.raises(error, match=re.escape(where)) as info:
        call()
    assert type(info.value) is error


@pytest.mark.parametrize("doc, error, where", [
    ([], InputError, "ring: expected an object"),
    (edited(RING_DOC, unit=None), InputError, "ring/unit: missing"),
    (edited(RING_DOC, basis=["1", 2]), InputError, "ring/basis: expected a list of strings"),
    (edited(RING_DOC, basis="1t"), InputError, "ring/basis: expected a list of strings"),
    (edited(RING_DOC, basis=["1", "1"]), InputError, "ring/basis: labels must be distinct"),
    (edited(RING_DOC, mul=[]), InputError, "ring/mul: expected an object"),
    (edited(RING_DOC, mul={"1t": [0, 1]}), InputError, "ring/mul/1t: key must look like"),
    (edited(RING_DOC, mul={"1*x": [0, 1]}), InputError, "ring/mul/1*x: unknown basis label"),
    (edited(RING_DOC, mul={"1*1": [1, 0], "1*t": [0, 1], "t*1": [1, 1], "t*t": [0, 0]}),
     NonCommutative, "('t', '1')"),
])
def test_ring_documents(doc, error, where):
    raises(error, where, lambda: ring_from_spec(doc))


@pytest.mark.parametrize("doc, where", [
    ("S", "multset: expected an object"),
    ({"kind": "ideal", "seeds": []}, "multset/kind: expected 'multset'"),
    ({"kind": "multset", "seeds": {}}, "multset/seeds: expected a list"),
    ({"kind": "multset", "seeds": [[1, 0, 0], [1, 0]]}, "multset/seeds[1]: expected 3"),
    ({"kind": "multset", "seeds": [[1, 0, 0.5]]}, "multset/seeds[0][2]: expected an integer"),
])
def test_multset_documents(doc, where):
    raises(InputError, where, lambda: multset_from_spec(product_ring(), doc))


ACTION = {"kind": "action", "dim": 1, "action": {"e1": [1], "e2": [0], "f": [0]}}


@pytest.mark.parametrize("doc, where", [
    (7, "module: expected an object"),
    (edited(ACTION, dim=None), "module: need 'dim' and 'action'"),
    (edited(ACTION, action=None), "module: need 'dim' and 'action'"),
    (edited(ACTION, action=[[1], [0], [0]]), "module/action: expected an object"),
    (edited(ACTION, action={"e1": [1], "e2": [0]}), "module/action/f: missing"),
    ({"kind": "presentation", "free_rank": 1, "relations": {}},
     "module/relations: expected a list"),
    ({"kind": "presentation", "free_rank": 1, "relations": [[[0, 1, 0], [0, 0, 1]]]},
     "module/relations/0: expected 1 ring elements"),
    ({"kind": "cokernel"}, "module/kind: expected 'action' or 'presentation'"),
])
def test_module_documents(doc, where):
    raises(InputError, where, lambda: module_from_spec(product_ring(), doc))


def test_a_presentation_without_relations_is_free():
    ring = product_ring()
    doc = {"kind": "presentation", "free_rank": 2, "relations": []}
    assert module_from_spec(ring, doc) is free_module(ring, 2)


@pytest.mark.parametrize("doc", [[0, 1], {"entries": [1]}])
def test_map_documents(doc):
    ring = product_ring()
    free = free_module(ring, 1)
    raises(InputError, "map: expected an object with 'matrix'",
           lambda: map_from_spec(free, free, doc))


def resolution_doc():
    ring = prime_field(2)
    return {"kind": "resolution",
            "module": {"kind": "action", "dim": 1, "action": {"1": [1]}},
            "depth": 1, "ranks": [1, 0], "augmentation": {"matrix": [1]},
            "boundaries": [{"matrix": []}]}, ring


@pytest.mark.parametrize("change, where", [
    ({"kind": "complex"}, "resolution/kind: expected 'resolution'"),
    ({"ranks": None}, "resolution/ranks: missing"),
    ({"boundaries": []}, "resolution/boundaries: expected 1 entries"),
    ({"augmentation": {"rows": [1]}}, "resolution/augmentation: expected an object"),
])
def test_resolution_documents(change, where):
    doc, ring = resolution_doc()
    assert resolution_from_spec(ring, doc).depth == 1
    raises(InputError, where, lambda: resolution_from_spec(ring, edited(doc, **change)))


@pytest.mark.parametrize("doc, where", [
    ({"kind": "z_presentation", "ring": "Z", "matrix": 3}, "module/matrix: expected a list"),
    ({"kind": "z_presentation", "ring": "Z", "matrix": [3]}, "module/matrix: expected a list"),
    ({"kind": "z_presentation", "ring": "Z", "matrix": [[2, 0], [1]]},
     "module: ragged presentation matrix"),
    ({"kind": "z_presentation", "ring": "Z_mod", "m": 1, "matrix": [[1]]},
     "module: ring Z_mod needs an integer modulus >= 2"),
])
def test_z_module_documents(doc, where):
    raises(InputError, where, lambda: z_module_from_spec(doc))


@pytest.mark.parametrize("doc, ring, m, where", [
    ({"generators": 2}, "Z", None, "multset/generators: expected a list"),
    ({"generators": [2, 0]}, "Z", None,
     "multset: multiplicative set generators must be nonzero"),
    ({"generators": [3]}, "Z_mod", 3, "multset: multiplicative set generators must be nonzero"),
    ({"generators": [2]}, "Z", 4, "multset: modulus given for ring Z"),
])
def test_z_multset_documents(doc, ring, m, where):
    raises(InputError, where, lambda: z_multset_from_spec(doc, ring, m))


def test_change_of_rings_rejects_mismatched_inputs():
    mod3 = z_module("Z_mod", [[3]], 3)
    raises(InputError, "quotient modulus must be >= 2",
           lambda: change_of_rings_check(1, mod3, z_multset("Z", [2])))
    raises(RingMismatch, "multiplicative set must live over Z",
           lambda: change_of_rings_check(3, mod3, z_multset("Z_mod", [2], 3)))
    ring = truncated_polynomial(2, 2)
    theta = quotient_algebra(ring, enumerate_ideals(ring).maximals[0])
    other = product_ring()
    raises(RingMismatch, "multiplicative set must live over the source ring",
           lambda: change_of_rings_check(theta, free_module(theta.algebra, 1),
                                         mult_closure(other, [])))


def test_algebra_constructors_check_their_shapes():
    raises(InputError, "ring dimension must be positive",
           lambda: FiniteAlgebra(2, [], np.zeros((0, 0, 0)), []))
    raises(InputError, "unit vector must have length 1",
           lambda: FiniteAlgebra(2, ["1"], [[[1]]], [1, 0]))
    raises(RingMismatch, "direct product needs equal characteristic",
           lambda: direct_product(prime_field(2), prime_field(3)))
    raises(InputError, "truncation order must be >= 1",
           lambda: truncated_polynomial(2, 0))
    ring = truncated_polynomial(3, 2)
    whole = [i for i in enumerate_ideals(ring) if i.fdim == ring.dim][0]
    raises(InputError, "cannot form quotient by the improper ideal",
           lambda: quotient_algebra(ring, whole))


# -- the CLI on one malformed file of each kind ------------------------------


def cli_error(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().err


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_cli_names_the_file_and_field_of_each_kind(tmp_path, capsys):
    ring = write(tmp_path, "ring.json", edited(RING_DOC, mul=[]))
    code, err = cli_error(capsys, ["spd", "--ring", ring, "--multset", "trivial.json",
                                   "--module", "m2.json"])
    assert code == 2 and ring + "/mul: expected an object" in err

    multset = write(tmp_path, "multset.json", {"kind": "multset", "seeds": [[1]]})
    code, err = cli_error(capsys, ["spd", "--ring", "example36.json", "--multset", multset,
                                   "--module", "m2.json"])
    assert code == 2 and multset + "/seeds[0]: expected 3 coefficients" in err

    module = write(tmp_path, "module.json", edited(ACTION, action=[]))
    code, err = cli_error(capsys, ["spd", "--ring", "example36.json",
                                   "--multset", "trivial.json", "--module", module])
    assert code == 2 and module + "/action: expected an object" in err

    res_doc, _ = resolution_doc()
    res = write(tmp_path, "res.json", edited(res_doc, augmentation=[1]))
    other = write(tmp_path, "other.json", res_doc["module"])
    code, err = cli_error(capsys, ["ext", "--ring", "f2.json", "--resolution", res,
                                   "--other", other, "--degree", "0"])
    assert code == 2 and res + "/augmentation: expected an object" in err

    z_mod = write(tmp_path, "zmod.json", {"kind": "z_presentation", "ring": "Z",
                                          "matrix": [[2, 0], [1]]})
    code, err = cli_error(capsys, ["factorcheck", "--a", "3", "--multset", "gen2.json",
                                   "--module", z_mod])
    assert code == 2 and z_mod + ": ragged presentation matrix" in err

    z_set = write(tmp_path, "zset.json", {"generators": "2"})
    code, err = cli_error(capsys, ["factorcheck", "--a", "3", "--multset", z_set,
                                   "--module", "z3.json"])
    assert code == 2 and z_set + "/generators: expected a list" in err
