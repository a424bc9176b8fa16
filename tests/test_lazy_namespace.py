"""The package namespace is lazy: a process loads only the modules it runs.

``import vnalg`` loads no submodule, and a cold CLI call loads the modules of
its subcommand alone.  Each runs in a fresh interpreter, because this test
process has loaded every module already.  The namespace still binds every
name the eager ``__init__`` bound, each to the object its module defines.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import vnalg
from vnalg.jsonio import dumps, element_to_json, map_to_json
from vnalg.maps import random_cp_map
from vnalg.sampling import random_positive

SRC = str(Path(vnalg.__file__).resolve().parents[1])
M2 = vnalg.make_algebra([2])

# Every public name the eager __init__ bound: the submodules it loaded and
# the names it imported from them.
MODULES = {"algebra", "spectral", "projections", "division", "maps", "measurement", "tensor",
           "structure", "errors", "sampling"}
EXPORTS = set("""
    DEFAULT_TOL Element FdAlgebra ToleranceConfig add adjoint direct_sum equal imag_part
    is_effect is_positive is_self_adjoint leq make_algebra mul operator_norm orthosupplement
    real_part scalar_mul trace Spectrum absolute functional_calculus neg_part pos_part power
    spectral_radius spectrum sqrt ProjectionCertificate Subspace ceiling central_support
    central_support_partition certify_projection commutant centre floor is_central
    is_projection join meet mvn_below range_projection rank_profile snap_projection support
    ApproxPseudoinverse PolarParts approximate_pseudoinverse divide douglas_lambda left_divide
    polar pseudoinverse sandwich_divide seq_quotient ChoiBlock LinMap PositivityReport Verdict
    apply carrier central_carrier choi_blocks compose conjugation_map density diamond_bwd
    diamond_box diamond_fwd functional_from_density identity_map is_completely_positive
    is_involutive is_miu is_multiplicative is_positive_functional is_positive_map is_subunital
    is_unital make_map maps_equal min_choi_eigenvalue mult_map trace_functional transpose_map
    vector_functional BinOpSpec CornerContext bracket check_axioms chevron corner_algebra
    counterexample_ops factor_through_corner factor_through_filter is_diamond_positive
    is_diamond_self_adjoint is_pure seq_product standard_corner standard_filter standard_op
    TensorStructure associator bang bang_unit braiding classical_points classical_reflection
    classical_unit distributor duplicability_witness duplicator is_duplicable left_unitor
    multiplication_map nsp right_unitor tensor_algebra tensor_elements tensor_maps GnsResult
    StarSubalgebra WedderburnResult gelfand_finite generate_subalgebra gns star_subalgebra
    wedderburn""".split())


# Runs ``code`` and, at exit, writes the loaded vnalg submodules on stderr.
PROBE = """import atexit, json, sys
atexit.register(lambda: sys.stderr.write(json.dumps(
    sorted(m[6:] for m in sys.modules if m.startswith("vnalg.")))))
"""


def loaded_submodules(code, stdin=""):
    """The vnalg submodules a fresh interpreter running ``code`` loads, and the process."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC, *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run([sys.executable, "-c", PROBE + code], input=stdin,
                          capture_output=True, text=True, env=env, timeout=120)
    return set(json.loads(proc.stderr)), proc  # any warning on stderr fails the parse


def cli(command):
    """``python -m vnalg.cli <command>``, run as __main__ inside the probe."""
    return (f"import runpy; sys.argv = ['vnalg', {command!r}]\n"
            "runpy.run_module('vnalg.cli', run_name='__main__', alter_sys=True)")


def test_import_vnalg_loads_no_submodule():
    loaded, proc = loaded_submodules("import vnalg")
    assert proc.returncode == 0
    assert loaded == set()


def test_a_cold_sqrt_call_loads_only_what_sqrt_runs():
    payload = dumps(element_to_json(random_positive(M2, np.random.default_rng(0))))
    loaded, proc = loaded_submodules(cli("sqrt"), payload)
    assert proc.returncode == 0 and '"blocks"' in proc.stdout
    assert loaded == {"algebra", "errors", "jsonio", "spectral"}


def test_a_cold_choi_call_loads_no_layer_above_the_maps():
    payload = dumps(map_to_json(random_cp_map(M2, M2, np.random.default_rng(0))))
    loaded, proc = loaded_submodules(cli("choi"), payload)
    assert proc.returncode == 0 and '"min_eigenvalue"' in proc.stdout
    assert "maps" in loaded
    assert not loaded & {"measurement", "division", "tensor", "structure", "suite"}


def test_the_namespace_lists_every_name_the_eager_init_bound():
    assert EXPORTS | MODULES <= set(dir(vnalg))
    assert EXPORTS | MODULES <= set(vnalg.__all__)


def test_each_name_is_the_object_its_module_defines():
    wrong = [name for name in sorted(EXPORTS) if getattr(
        importlib.import_module(getattr(vnalg, name).__module__), name) is not getattr(vnalg, name)]
    assert wrong == []
    assert all(getattr(vnalg, name) is importlib.import_module(f"vnalg.{name}")
               for name in MODULES)


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        vnalg.no_such_name
    with pytest.raises(ImportError):
        from vnalg import no_such_name  # noqa: F401
