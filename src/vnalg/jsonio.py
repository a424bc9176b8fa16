"""JSON wire format shared by the CLI and fixtures.

Schemas:
    algebra  {"dims": [n1, ...]}
    element  {"algebra": {...}, "blocks": [[[ [re, im], ...], ...], ...]}
    map      {"dom": {...}, "cod": {...}, "images": [element, ...]}

Blocks are row-major; complex entries are [re, im] pairs.  Dumps are
canonical (sorted keys, fixed separators) so identical values serialize to
identical bytes.
"""

from __future__ import annotations

import json
from typing import Any

import numpy as np

from .algebra import Element, FdAlgebra
from .errors import NotFinite
from .maps import LinMap, make_map


def algebra_to_json(algebra: FdAlgebra) -> dict:
    return {"dims": list(algebra.dims)}


def _field(data: Any, key: str) -> Any:
    """``data[key]``, or a ValueError naming ``key`` when ``data`` is no dict holding it."""
    if not isinstance(data, dict) or key not in data:
        raise ValueError(f"missing field '{key}'")
    return data[key]


def algebra_from_json(data: Any) -> FdAlgebra:
    return FdAlgebra(tuple(int(n) for n in _field(data, "dims")))


def _matrix_to_json(m: np.ndarray) -> list:
    return [[[float(v.real), float(v.imag)] for v in row] for row in m]


def _matrix_from_json(rows: Any) -> np.ndarray:
    m = np.array([[complex(c[0], c[1]) for c in row] for row in rows], dtype=complex)
    if not np.isfinite(m).all():
        raise NotFinite("matrix entries must be finite")
    return m


def element_to_json(a: Element) -> dict:
    return {"algebra": algebra_to_json(a.algebra),
            "blocks": [_matrix_to_json(b) for b in a.blocks]}


def element_from_json(data: Any) -> Element:
    try:
        algebra = algebra_from_json(_field(data, "algebra"))
        blocks = [_matrix_from_json(b) for b in _field(data, "blocks")]
    except (TypeError, IndexError, KeyError) as exc:  # a wrong JSON type
        raise ValueError(f"malformed JSON: {exc}") from exc
    if len(blocks) != algebra.num_blocks:
        raise ValueError("block count does not match dims")
    return algebra.element(blocks)


def map_to_json(f: LinMap) -> dict:
    # The images of the basis are the matrix columns; adding 0.0 turns -0.0
    # into 0.0, as applying f to a basis element does.
    return {"dom": algebra_to_json(f.dom),
            "cod": algebra_to_json(f.cod),
            "images": [element_to_json(f.cod.from_coords(col)) for col in (f.matrix + 0.0).T]}


def map_from_json(data: Any) -> LinMap:
    try:
        dom, cod = (algebra_from_json(_field(data, key)) for key in ("dom", "cod"))
        images = [element_from_json(e) for e in _field(data, "images")]
    except (TypeError, IndexError) as exc:  # a wrong JSON type
        raise ValueError(f"malformed JSON: {exc}") from exc
    return make_map(dom, cod, images)


def dumps(obj: Any) -> str:
    """Canonical JSON: sorted keys, no whitespace, trailing newline; NaN or inf is NotFinite."""
    try:
        return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n"
    except ValueError:
        raise NotFinite("the result has a NaN or infinite entry") from None


def loads(text: str) -> Any:
    return json.loads(text)
