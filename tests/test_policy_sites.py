"""Each numerical policy of the package is spelled in one place.

- numpy's Hermitian eigensolvers are called only by ``algebra._eigh`` and
  ``algebra._eigvalsh``;
- the tolerance rules eps_abs + eps_rel*max(1, s), -eps_rel*max(1, s) and
  snap_eps*max(1, s) are spelled only in ``ToleranceConfig``;
- the Hermitian and skew parts of an Element are ``symmetrize(x)`` and
  ``imag_part(x)``, never spelled out by hand;
- the acceptance battery's relative bound rel * (1 + ||ref||) is spelled
  only in ``suite._close``;
- numpy's spectral norm ``norm(x, 2)`` runs only in ``algebra._max_norm``
  and the stacked ``maps._any_over``, so every norm test goes through
  ``algebra._norm_gate`` or ``_any_over``;
- the numerical span of a stack of vectors (a thin SVD cut at the snap
  radius of its largest singular value) is taken only in
  ``projections._span``, and bijectivity (least singular value against
  snap_eps) is decided only in ``maps._is_bijective``;
- numpy's SVD runs only in those two and in ``projections._ranked_svd``,
  which decides the rank of an element block for ``support``, ``range``,
  ``polar``, ``rank_profile`` and ``pseudoinverse``; ``numpy.linalg.pinv``
  runs nowhere.

Only code is scanned: comments and string literals, docstrings included,
may state a rule.
"""

import ast
import io
import re
import tokenize
from pathlib import Path

import pytest

import vnalg

FILES = sorted(Path(vnalg.__file__).resolve().parent.glob("*.py"))


def code_lines(path: Path) -> dict[int, str]:
    """Line number -> the line with its comments and string literals blanked."""
    text = path.read_text()
    chars = [list(line) for line in text.splitlines()]
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type in (tokenize.COMMENT, tokenize.STRING):
            (r0, c0), (r1, c1) = tok.start, tok.end
            for r in range(r0, r1 + 1):
                row = chars[r - 1]
                lo, hi = (c0 if r == r0 else 0), (c1 if r == r1 else len(row))
                row[lo:hi] = " " * (hi - lo)
    return {no: "".join(row) for no, row in enumerate(chars, start=1)}


def sites(pattern: str) -> set[tuple[str, int]]:
    """(file name, line number) of every code line matching ``pattern``."""
    return {(path.name, no) for path in FILES
            for no, line in code_lines(path).items() if re.search(pattern, line)}


def lines_of(*names: str) -> set[tuple[str, int]]:
    """(file name, line number) of every line inside a class or function so named."""
    out = set()
    for path in FILES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.ClassDef, ast.FunctionDef)) and node.name in names:
                out |= {(path.name, no) for no in range(node.lineno, node.end_lineno + 1)}
    return out


def test_the_scanner_skips_comments_and_strings(tmp_path):
    path = tmp_path / "m.py"
    path.write_text('x = 1  # eigh\ns = """eigh\neigh"""\ny = eigh(x)\n')
    assert [no for no, line in code_lines(path).items() if "eigh" in line] == [4]


def test_hermitian_eigensolvers_run_only_in_the_helper_pair():
    found = sites(r"\beig(h|valsh)\b")  # a call or an import of either solver
    assert found and found <= lines_of("_eigh", "_eigvalsh"), sorted(found)


@pytest.mark.parametrize("pattern", [
    r"eps_rel \* max\(",
    r"snap_eps \* max\(",
    r"eps_abs \+ \w+\.eps_rel",
])
def test_tolerance_rules_are_spelled_only_in_tolerance_config(pattern):
    assert sites(pattern) <= lines_of("ToleranceConfig"), sorted(sites(pattern))


@pytest.mark.parametrize("pattern", [
    r"0\.5 \* \((\w+) \+ adjoint\(\1\)\)",
    r"-0\.5j \* \((\w+) - adjoint\(\1\)\)",
])
def test_element_parts_are_spelled_by_their_functions(pattern):
    assert not sites(pattern), sorted(sites(pattern))


def test_the_battery_relative_bound_is_spelled_only_in_its_helper():
    found = sites(r"\* \(1(\.0)? \+ operator_norm\(")
    assert found and found <= lines_of("_close"), sorted(found)


def test_spectral_norms_run_only_in_max_norm_and_any_over():
    found = sites(r"linalg\.norm\(.*, (ord=)?2\b")
    assert found and found <= lines_of("_max_norm", "_any_over"), sorted(found)


def test_numerical_spans_are_taken_only_in_span():
    found = sites(r"full_matrices=False")
    assert found and found <= lines_of("_span"), sorted(found)


def test_bijectivity_is_decided_only_in_is_bijective():
    found = sites(r"\[-1\] *[<>]=? *\w+\.snap_eps")
    assert found and found <= lines_of("_is_bijective"), sorted(found)


def test_svds_run_only_in_the_ranked_svd_the_span_and_bijectivity():
    found = sites(r"linalg\.svd\b")
    assert found and found <= lines_of("_ranked_svd", "_span", "_is_bijective"), sorted(found)
    assert not sites(r"\bpinv\("), sorted(sites(r"\bpinv\("))
