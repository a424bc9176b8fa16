"""Acceptance battery: every headline criterion at its stated tolerance.

Each criterion runs at full sample counts and prints one pass/fail line;
the whole battery is the same code the CLI exposes as verify-suite --level
full.  Desk scale: block sizes at most 6, at most 3 blocks.
"""

import json
from pathlib import Path

import pytest

from vnalg.suite import (CHECKS, check_choi_agreement, check_division_polar,
                         check_duplicability, check_gns,
                         check_inequality_corpus, check_lattice_identities,
                         check_monoidal_coherence, check_seqprod_axioms,
                         check_square_root_axiom, check_wedderburn_recovery)

CRITERIA = [
    ("1 sequential-product axioms", check_seqprod_axioms),
    ("2 square-root axiom", check_square_root_axiom),
    ("3 choi vs n-positivity oracle", check_choi_agreement),
    ("4 division and polar", check_division_polar),
    ("5 projection-lattice identities", check_lattice_identities),
    ("6 wedderburn recovery", check_wedderburn_recovery),
    ("7 state representations", check_gns),
    ("8 duplicability", check_duplicability),
    ("9 monoidal coherence", check_monoidal_coherence),
    ("10 inequality corpus", check_inequality_corpus),
]


@pytest.mark.parametrize("label,fn", CRITERIA, ids=[c[0] for c in CRITERIA])
def test_acceptance_criterion(label, fn, capsys):
    ok, detail = fn("full")
    with capsys.disabled():
        status = "PASS" if ok else "FAIL"
        print(f"\n[{status}] criterion {label}: {detail}")
    assert ok, detail


SUITE_GOLDEN = Path(__file__).parent / "data" / "suite"


@pytest.mark.parametrize("seed", range(4))
def test_smoke_battery_golden(seed):
    # Criteria 2-10 at smoke counts on seeds other than the acceptance ones:
    # every verdict and detail string, pass or fail, is pinned.
    want = json.loads((SUITE_GOLDEN / f"smoke_seed{seed}.json").read_text())
    assert {name: list(fn("smoke", seed)) for name, fn in CHECKS[1:]} == want
