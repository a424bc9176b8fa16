"""vnalg: computations in finite direct sums of complex matrix algebras.

The package covers the constructive operator-algebra toolkit at desk scale:
C*-arithmetic and positivity, spectra and functional calculus, the
projection lattice, pseudoinverses and polar decompositions, completely
positive maps with Choi certificates, corners and filters, the sequential
product with its axiom battery, tensor and monoidal structure,
duplicability, decomposition of *-subalgebras, and state representations.
"""

import importlib

__version__ = "0.1.0"

# Each module the namespace imports on first use (PEP 562), with the names it re-exports.
_EXPORTS = {
    "algebra": "DEFAULT_TOL Element FdAlgebra ToleranceConfig add adjoint direct_sum equal "
               "imag_part is_effect is_positive is_self_adjoint leq make_algebra mul "
               "operator_norm orthosupplement real_part scalar_mul trace",
    "spectral": "Spectrum absolute functional_calculus neg_part pos_part power spectral_radius "
                "spectrum sqrt",
    "projections": "ProjectionCertificate Subspace ceiling central_support "
                   "central_support_partition certify_projection commutant centre floor "
                   "is_central is_projection join meet mvn_below range_projection rank_profile "
                   "snap_projection support",
    "division": "ApproxPseudoinverse PolarParts approximate_pseudoinverse divide douglas_lambda "
                "left_divide polar pseudoinverse sandwich_divide seq_quotient",
    "maps": "ChoiBlock LinMap PositivityReport Verdict apply carrier central_carrier choi_blocks "
            "compose conjugation_map density diamond_bwd diamond_box diamond_fwd "
            "functional_from_density identity_map is_completely_positive is_involutive is_miu "
            "is_multiplicative is_positive_functional is_positive_map is_subunital is_unital "
            "make_map maps_equal min_choi_eigenvalue mult_map trace_functional transpose_map "
            "vector_functional",
    "measurement": "BinOpSpec CornerContext bracket check_axioms chevron corner_algebra "
                   "counterexample_ops factor_through_corner factor_through_filter "
                   "is_diamond_positive is_diamond_self_adjoint is_pure seq_product "
                   "standard_corner standard_filter standard_op",
    "tensor": "TensorStructure associator bang bang_unit braiding classical_points "
              "classical_reflection classical_unit distributor duplicability_witness duplicator "
              "is_duplicable left_unitor multiplication_map nsp right_unitor tensor_algebra "
              "tensor_elements tensor_maps",
    "structure": "GnsResult StarSubalgebra WedderburnResult gelfand_finite generate_subalgebra "
                 "gns star_subalgebra wedderburn",
    "errors": "", "sampling": "",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = [*_EXPORTS, *_HOME]


def __getattr__(name: str):
    """A submodule, or a public name read from its defining module, on first access."""
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _HOME:
        return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
