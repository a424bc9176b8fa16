"""Each typed error of the library and the CLI, provoked once by the least
input that reaches it; and the plain answers the predicates give on inputs
of mismatched or degenerate shape."""

import io
import json
import sys

import numpy as np
import pytest

import vnalg
from vnalg import (DEFAULT_TOL, LinMap, ToleranceConfig, carrier, commutant, compose, density,
                   identity_map, is_diamond_positive, is_diamond_self_adjoint, is_pure, join,
                   make_algebra, make_map, maps_equal, meet, mult_map, snap_projection,
                   standard_corner, standard_filter, star_subalgebra, tensor_algebra,
                   tensor_maps)
from vnalg.cli import main
from vnalg.errors import (AlgebraMismatch, ClosureViolated, NotEffect, NotFinite, NotPositive,
                          NotProjection, ShapeMismatch)
from vnalg.jsonio import dumps, element_from_json, map_from_json
from vnalg.maps import (are_contraposed, are_equivalent, random_cpu_map, scalar_value,
                        transpose_map)
from vnalg.measurement import _directed_e_pairs, named_op
from vnalg.tensor import factor_through_classical

M2 = make_algebra([2])
M3 = make_algebra([3])
EMPTY = make_algebra([])
ID2 = identity_map(M2)
ID3 = identity_map(M3)
M2_TO_M3 = LinMap(M2, M3, np.zeros((9, 4)))
TS = tensor_algebra(M2, M2)
PAULI = [M2.element([np.array(m, dtype=complex)]) for m in ([[0, 1], [1, 0]], [[1, 0], [0, -1]])]


class ZeroDraws:
    """A generator stand-in whose normal draws are all zero."""

    def standard_normal(self, shape):
        return np.zeros(shape)


ERRORS = {
    "LinMap matrix of the wrong shape": (lambda: LinMap(M2, M3, np.zeros((4, 4))),
                                         ShapeMismatch, "matrix shape"),
    "make_map image in another algebra": (lambda: make_map(M2, M2, [M3.unit()] * 4),
                                          ShapeMismatch, "wrong algebra"),
    "sum of maps between different algebras": (lambda: ID2 + ID3, ShapeMismatch, "map sum"),
    "compose through different algebras": (lambda: compose(ID2, ID3),
                                           ShapeMismatch, "inner map"),
    "mult_map factors in two algebras": (lambda: mult_map(M2.unit(), M3.unit()),
                                         ShapeMismatch, "share an algebra"),
    "scalar_value of a matrix": (lambda: scalar_value(M2.unit()), ShapeMismatch, "not a scalar"),
    "density of a map into M2": (lambda: density(ID2), ShapeMismatch, "functional"),
    "tensor_maps with a wrong domain": (lambda: tensor_maps(TS, TS, ID3, ID2),
                                        ShapeMismatch, "domains"),
    "tensor_maps with a wrong codomain": (lambda: tensor_maps(TS, TS, M2_TO_M3, ID2),
                                          ShapeMismatch, "codomains"),
    "is_diamond_self_adjoint of M2 -> M3": (lambda: is_diamond_self_adjoint(M2_TO_M3),
                                            ShapeMismatch, "endomap"),
    "is_diamond_positive of M2 -> M3": (lambda: is_diamond_positive(M2_TO_M3),
                                        ShapeMismatch, "endomap"),
    "factor_through_classical into M2": (lambda: factor_through_classical(ID2),
                                         ShapeMismatch, "classical codomain"),
    "Element with a missing block": (lambda: M2.element([]), AlgebraMismatch, "number of blocks"),
    "Element with a 3x3 block in M2": (lambda: M2.element([np.eye(3)]),
                                       AlgebraMismatch, "block shape"),
    "from_coords of three coordinates": (lambda: M2.from_coords(np.zeros(3)),
                                         AlgebraMismatch, "wrong length"),
    "standard_corner of 2": (lambda: standard_corner(2.0 * M2.unit()), NotEffect, "effect"),
    "standard_filter of -1": (lambda: standard_filter(-1.0 * M2.unit()), NotPositive, "positive"),
    "carrier of the non-involutive i id": (lambda: carrier(1j * ID2), NotPositive, "involution"),
    "snap_projection of 1/2": (lambda: snap_projection(0.5 * M2.unit()),
                               NotProjection, "too far"),
    "empty join": (lambda: join([]), ValueError, "at least one"),
    "empty meet": (lambda: meet([]), ValueError, "at least one"),
    "named_op of an unknown name": (lambda: named_op("nope", M2), KeyError, "nope"),
    "span of 1, X, Z misses XZ": (lambda: star_subalgebra(M2, [M2.unit(), *PAULI]),
                                  ClosureViolated, "products"),
    "snap_eps below eps_rel": (lambda: ToleranceConfig(eps_rel=1e-3, snap_eps=1e-4),
                               ValueError, "snap_eps"),
    "random_cpu_map with no invertible unit image": (
        lambda: random_cpu_map(M2, M2, ZeroDraws()), RuntimeError, "invertible"),
    "element JSON with a missing block": (
        lambda: element_from_json({"algebra": {"dims": [2]}, "blocks": []}),
        ValueError, "block count"),
    "map JSON whose images are a number": (
        lambda: map_from_json({"dom": {"dims": [1]}, "cod": {"dims": [1]}, "images": 5}),
        ValueError, "malformed JSON"),
    "JSON of an infinite result": (lambda: dumps([float("inf")]), NotFinite, "infinite"),
}


@pytest.mark.parametrize("call,error,match", ERRORS.values(), ids=ERRORS.keys())
def test_a_typed_error(call, error, match):
    with pytest.raises(error, match=match):
        call()


ANSWERS = {
    "maps_equal across algebras": (lambda: maps_equal(ID2, ID3), False),
    "are_equivalent across algebras": (lambda: are_equivalent(ID2, ID3), False),
    "are_contraposed of M2 -> M3 with itself": (lambda: are_contraposed(M2_TO_M3, M2_TO_M3),
                                                False),
    "is_diamond_positive of -id": (lambda: is_diamond_positive(-1.0 * ID2), False),
    "are_contraposed of id and 0": (lambda: are_contraposed(ID2, 0.0 * ID2), False),
    "is_pure of the transpose": (lambda: is_pure(transpose_map(M2)), False),
    "directed exchange pairs of -id": (
        lambda: _directed_e_pairs(-1.0 * ID2, M2.unit(), DEFAULT_TOL), []),
    "commutant within the empty sum": (lambda: commutant([], EMPTY).basis, ()),
    "mult_map on the empty sum": (lambda: mult_map(EMPTY.unit(), EMPTY.unit()).matrix.shape,
                                  (0, 0)),
    "repr of an element and a map": (lambda: (repr(M2.unit()), repr(M2_TO_M3)),
                                     ("Element(dims=(2,))", "LinMap((2,) -> (3,))")),
    "a submodule through the namespace": (lambda: vnalg.__getattr__("sampling"),
                                          vnalg.sampling),
}


@pytest.mark.parametrize("call,want", ANSWERS.values(), ids=ANSWERS.keys())
def test_an_answer_on_a_degenerate_input(call, want):
    assert call() == want


@pytest.mark.parametrize("argv,words", [
    (["tensor", "--algebras", "2"], "two algebras"),
    (["sqrt", "--tol", "abc"], "--tol"),
])
def test_a_cli_usage_error_is_a_parse_error(argv, words):
    old_out = sys.stdout
    sys.stdout = io.StringIO()
    try:
        code = main(argv)
        out = json.loads(sys.stdout.getvalue())
    finally:
        sys.stdout = old_out
    assert (code, out["error"]) == (1, "ParseError") and words in out["message"], out
