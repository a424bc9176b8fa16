"""The acceptance battery: every headline theorem as an executable check.

Each check returns (ok, detail) and is deterministic for a fixed seed.  The
``smoke`` level shrinks the sample counts for a quick end-to-end pass; the
``full`` level runs the counts and tolerances the library is accepted
against (block sizes at most 6, at most 3 blocks, desk-scale runtime).
"""

from __future__ import annotations

import numpy as np

from .algebra import (DEFAULT_TOL, Element, FdAlgebra, ToleranceConfig, _block_diag,
                      _norm_gate, add, adjoint, equal, is_effect, is_positive, leq,
                      make_algebra, mul, operator_norm, orthosupplement, scalar_mul)
from .division import (approximate_pseudoinverse, divide, douglas_lambda, polar)
from .maps import (LinMap, _is_bijective, apply, carrier, central_carrier, compose,
                   conjugation_map, functional_from_density, identity_map, is_completely_positive,
                   is_miu, make_map, maps_equal, min_choi_eigenvalue, mult_map,
                   random_cp_map, random_cpu_map, random_state, scalar_value,
                   transpose_map)
from .measurement import (check_axioms, counterexample_ops, is_diamond_positive,
                          standard_op)
from .projections import (ceiling, floor, join, meet,
                          range_projection, snap_projection, support)
from .sampling import (_element_stacks, random_effect, random_element, random_positive,
                       random_projection, random_self_adjoint, random_unitary,
                       random_unitary_block)
from .spectral import power, spectrum, sqrt
from .structure import gns, star_subalgebra, wedderburn
from .tensor import (_tensor_of, _tensor_of_maps, associator, braiding,
                     duplicability_witness, duplicator, distributor, is_duplicable,
                     left_unitor, multiplication_map, right_unitor, tensor_algebra)

TOL = DEFAULT_TOL
MIU_TOL = ToleranceConfig(eps_rel=1e-8, eps_abs=1e-10, snap_eps=1e-7)


def _close(d: Element, ref: Element, rel: float) -> bool:
    """The battery's relative check: ||d|| <= rel * (1 + ||ref||).  It is not
    ``ToleranceConfig.threshold``, which at ||ref|| = 1 is about half as wide."""
    return _norm_gate(d.blocks, rel, lambda: rel * (1.0 + operator_norm(ref)))


def _counts(level: str) -> dict:
    if level == "smoke":
        return {"axiom_trials": 20, "purity_trials": 6, "sqrt_trials": 8,
                "choi_maps": 12, "choi_tuples": 120, "division_trials": 30,
                "lattice_trials": 25, "wedderburn_trials": 6, "gns_states": 6,
                "coherence_probes": 8, "tensor_pairs": 15, "corpus_trials": 25}
    return {"axiom_trials": 200, "purity_trials": 50, "sqrt_trials": 50,
            "choi_maps": 100, "choi_tuples": 500, "division_trials": 200,
            "lattice_trials": 200, "wedderburn_trials": 50, "gns_states": 30,
            "coherence_probes": 50, "tensor_pairs": 100, "corpus_trials": 200}


# ---------------------------------------------------------------------------
# 1. Sequential-product uniqueness battery


def check_seqprod_axioms(level: str = "full", seed: int = 2024) -> tuple[bool, str]:
    c = _counts(level)
    algebras = [make_algebra([2]), make_algebra([3]), make_algebra([2, 1])]
    problems = []

    def report(op, alg):
        return check_axioms(op, alg, trials=c["axiom_trials"], seed=seed, tol=TOL,
                            check_tol=1e-8, purity_trials=c["purity_trials"])

    for alg in algebras:
        rep = report(standard_op(TOL), alg)
        bad = [k for k, v in rep.items() if v["status"] != "pass"]
        if bad:
            problems.append(f"std on {alg.dims}: {bad} not passing")
        for op in counterexample_ops(alg, TOL):
            rep = report(op, alg)
            for axiom, res in rep.items():
                want = "fail" if axiom == op.target_axiom else "pass"
                if res["status"] != want:
                    problems.append(
                        f"{op.name} on {alg.dims}: axiom {axiom} is "
                        f"{res['status']}, expected {want}")
                if axiom == op.target_axiom and res["witness"] is None:
                    problems.append(f"{op.name} on {alg.dims}: no witness emitted")
    detail = "; ".join(problems) if problems else \
        f"std passes A-E and all 4 variants fail exactly their target on " \
        f"{len(algebras)} algebras ({c['axiom_trials']} trials)"
    return (not problems, detail)


# ---------------------------------------------------------------------------
# 2. Square Root Axiom


def check_square_root_axiom(level: str = "full", seed: int = 11) -> tuple[bool, str]:
    c = _counts(level)
    alg = make_algebra([3])
    rng = np.random.default_rng(seed)
    n = c["sqrt_trials"]
    for _ in range(n):
        p = random_positive(alg, rng)
        quarter = power(p, 0.25, TOL)
        g = mult_map(quarter, quarter)
        if not is_diamond_positive(g, TOL):
            return False, f"fourth-root conjugation not diamond-positive at {p!r}"
        gg1 = apply(g, apply(g, alg.unit()))
        if not _close(gg1 - p, p, 1e-8):
            return False, "g(g(1)) != p beyond 1e-8"
    rejected = 0
    for _ in range(n):
        p = random_positive(alg, rng)
        u = random_unitary(alg, rng)
        lam = u.blocks[0][0, 0]
        if operator_norm(u - lam * alg.unit()) < 1e-3:
            continue  # essentially scalar; conjugation would be trivial
        root = sqrt(p, TOL)
        f = compose(mult_map(root, root), conjugation_map(u))
        if is_diamond_positive(f, TOL):
            return False, "perturbed pure map wrongly accepted as diamond-positive"
        rejected += 1
    return True, f"{n} fourth-root maps accepted, {rejected} twisted maps rejected"


# ---------------------------------------------------------------------------
# 3. Choi versus brute-force n-positivity


def _npos_total(f: LinMap, t: int, max_len: int, rng: np.random.Generator) -> Element:
    """Tuple t of :func:`_npos_oracle`, summed on one (n, m, m) stack per block:
    one einsum for all n^2 products a_i* a_j, one matmul by ``f.matrix`` for
    their images, and one einsum per codomain block for the sum with the b's."""
    if t % 2 == 0:
        n = int(rng.integers(1, max_len + 1))
        a = _element_stacks(f.dom, rng, n)
    else:
        i = int(rng.integers(0, f.dom.num_blocks))
        ni = f.dom.dims[i]
        n = min(max_len, ni * ni)
        u = rng.standard_normal(ni) + 1j * rng.standard_normal(ni)
        a = [np.zeros((n, m, m), dtype=complex) for m in f.dom.dims]
        x = rng.standard_normal((n, 2, ni))  # the x_k, real and imaginary parts
        a[i][:] = (u / np.linalg.norm(u))[:, None] * (x[:, 0] + 1j * x[:, 1]).conj()[:, None, :]
    b = _element_stacks(f.cod, rng, n)
    images = np.concatenate([np.einsum("iba,jbc->ijac", s.conj(), s).reshape(n, n, -1)
                             for s in a], axis=2) @ f.matrix.T
    return Element._wrap(f.cod, (np.einsum("iba,ijbc,jcd->ad", bs.conj(),
                                           images[:, :, off:off + m * m].reshape(n, n, m, m), bs)
                                 for bs, off, m in zip(b, f.cod.offsets, f.cod.dims)))


def _npos_oracle(f: LinMap, tuples: int, max_len: int,
                 rng: np.random.Generator) -> bool:
    """Sampled n-positivity: sum_ij b_i* f(a_i* a_j) b_j >= 0 on random tuples.

    Half the tuples are generic Gaussian draws; the other half take the
    a_i as rank-one slices |u><x_i| of a common random vector, for which the
    quadratic form scans a random subspace of the full matrix amplification
    and detects non-positivity far more sharply.
    """
    return all(is_positive(_npos_total(f, t, max_len, rng), TOL) for t in range(tuples))


def _random_mixture_map(alg: FdAlgebra, rng: np.random.Generator) -> LinMap:
    """Mixture of unitary conjugations, with a transpose factor half the time.

    The transpose weight stays in [0.75, 1]: along the twisted antisymmetric
    direction the mixture is then bounded above by 2 - 3*mu <= -1/4, so
    every instance sits a definite margin away from the CP boundary and a
    sampled oracle can classify it.
    """
    u = random_unitary(alg, rng)
    v = random_unitary(alg, rng)
    f = 0.5 * conjugation_map(u) + 0.5 * conjugation_map(v)
    if rng.uniform() < 0.5:
        w = random_unitary(alg, rng)
        mu = rng.uniform(0.75, 1.0)
        twisted = compose(transpose_map(alg), conjugation_map(w))
        f = (1.0 - mu) * f + mu * twisted
    return f


def check_choi_agreement(level: str = "full", seed: int = 5) -> tuple[bool, str]:
    c = _counts(level)
    alg = make_algebra([2])
    rng = np.random.default_rng(seed)
    agree = 0
    for k in range(c["choi_maps"]):
        f = _random_mixture_map(alg, rng)
        by_choi = is_completely_positive(f, TOL)
        by_oracle = _npos_oracle(f, c["choi_tuples"], 4, rng)
        if by_choi != by_oracle:
            return False, f"instance {k}: choi={by_choi} oracle={by_oracle}"
        agree += 1
    t_eig = min_choi_eigenvalue(transpose_map(alg))
    if abs(t_eig - (-1.0)) > 1e-9:
        return False, f"transpose Choi eigenvalue {t_eig} != -1"
    return True, f"{agree} maps agree with the sampled oracle; transpose eig -1"


# ---------------------------------------------------------------------------
# 4. Division / polar suite


def check_division_polar(level: str = "full", seed: int = 23) -> tuple[bool, str]:
    c = _counts(level)
    rng = np.random.default_rng(seed)
    algebras = [make_algebra([3]), make_algebra([2, 2])]
    n = c["division_trials"]
    for k in range(n):
        alg = algebras[k % 2]
        a = random_element(alg, rng)
        if k % 3 == 0:
            a = mul(a, random_projection(alg, rng))  # force rank deficiency
        parts = polar(a, TOL)
        resid = a - mul(parts.isometry, parts.modulus)
        if not _close(resid, a, 1e-9):
            return False, f"polar residual {operator_norm(resid):.2e}"
    for k in range(max(1, n // 2)):
        alg = algebras[k % 2]
        cfac = random_element(alg, rng)
        b = random_element(alg, rng)
        if k % 4 == 0:
            b = mul(b, random_projection(alg, rng))
        a = mul(cfac, b)
        q = divide(a, b, TOL)
        want = mul(cfac, range_projection(b, TOL))
        if not _close(q - want, want, 1e-8):
            return False, "division did not recover the cofactor on the support"
        lam = douglas_lambda(a, b, TOL)
        if operator_norm(q) > lam + 1e-8:
            return False, "quotient norm exceeds the reported bound"
        gap = scalar_mul(lam * lam, mul(adjoint(b), b)) - mul(adjoint(a), a)
        if not is_positive(gap, ToleranceConfig(1e-6, 1e-9, 1e-6)):
            return False, "reported bound does not satisfy a*a <= lam^2 b*b"
    for k in range(max(1, n // 4)):
        alg = algebras[k % 2]
        a = random_element(alg, rng)
        if k % 2 == 0:
            a = random_positive(alg, rng)
        approx = approximate_pseudoinverse(a, TOL)
        left = alg.zero()
        for t in approx.terms:
            prod = mul(t, a)
            if operator_norm(mul(prod, prod) - prod) > 1e-8:
                return False, "t_n a is not a projection"
            left = add(left, prod)
        if operator_norm(left - support(a, TOL)) > 1e-8:
            return False, "series does not sum to the support"
    return True, f"{n} polar round trips, {n // 2} divisions, {n // 4} banded inverses"


# ---------------------------------------------------------------------------
# 5. Projection-lattice identities


def check_lattice_identities(level: str = "full", seed: int = 7) -> tuple[bool, str]:
    c = _counts(level)
    rng = np.random.default_rng(seed)
    n = c["lattice_trials"]
    for alg in [make_algebra([4]), make_algebra([2, 2])]:
        for _ in range(n):
            p = random_projection(alg, rng)
            q = random_projection(alg, rng)
            lhs = snap_projection(ceiling(mul(mul(p, q), p), TOL), TOL)
            rhs = meet([p, join([orthosupplement(p), q], TOL)], TOL)
            if not equal(lhs, rhs, TOL):
                return False, f"ceil(pqp) identity fails on {alg.dims}"
        for _ in range(n):
            a = random_effect(alg, rng)
            b = random_effect(alg, rng)
            root = sqrt(a, TOL)
            lhs = floor(mul(mul(root, b), root), TOL)
            rhs = meet([floor(a, TOL), floor(b, TOL)], TOL)
            if not equal(lhs, rhs, TOL):
                return False, f"floor meet identity fails on {alg.dims}"
        for _ in range(n):
            a = random_effect(alg, rng)
            if not equal(orthosupplement(ceiling(a, TOL)),
                         floor(orthosupplement(a), TOL), TOL):
                return False, f"ceiling-floor duality fails on {alg.dims}"
        for _ in range(n):
            f = random_cp_map(alg, alg, rng)
            a = random_positive(alg, rng)
            lhs = snap_projection(ceiling(apply(f, a), TOL), TOL)
            rhs = snap_projection(
                ceiling(apply(f, snap_projection(ceiling(a, TOL), TOL)), TOL), TOL)
            if not equal(lhs, rhs, TOL):
                return False, f"ceiling naturality fails on {alg.dims}"
    return True, f"4 identities x 2 algebras x {n} instances, all exact post-snap"


# ---------------------------------------------------------------------------
# 6. Wedderburn recovery


def _conjugated_block_subalgebra(dims: list[int], rng: np.random.Generator):
    inner = make_algebra(dims)
    total = sum(dims)
    big = make_algebra([total])
    u = random_unitary_block(rng, total)
    span = []
    for x in inner.basis():
        emb = _block_diag(*x.blocks)
        span.append(big.element([u @ emb @ u.conj().T]))
    return inner, big, span


def check_wedderburn_recovery(level: str = "full", seed: int = 31) -> tuple[bool, str]:
    c = _counts(level)
    rng = np.random.default_rng(seed)
    for k in range(c["wedderburn_trials"]):
        blocks = int(rng.integers(1, 4))
        dims = []
        budget = 6
        for _ in range(blocks):
            hi = min(3, budget - (blocks - len(dims) - 1))
            if hi < 1:
                break
            d = int(rng.integers(1, hi + 1))
            dims.append(d)
            budget -= d
        inner, big, span = _conjugated_block_subalgebra(dims, rng)
        sub = star_subalgebra(big, span, TOL)
        result = wedderburn(sub, seed=int(rng.integers(0, 2**31)), tol=TOL)
        if sorted(result.dims) != sorted(dims):
            return False, f"instance {k}: got {result.dims}, wanted {dims}"
        if not is_miu(result.embed, MIU_TOL):
            return False, f"instance {k}: embedding not miu at 1e-8"
        for x in result.target.basis():
            if not sub.contains(apply(result.embed, x), TOL):
                return False, f"instance {k}: image leaves the subalgebra"
    return True, f"{c['wedderburn_trials']} random conjugated sums recovered exactly"


# ---------------------------------------------------------------------------
# 7. GNS


def check_gns(level: str = "full", seed: int = 13) -> tuple[bool, str]:
    c = _counts(level)
    rng = np.random.default_rng(seed)
    algebras = [make_algebra([2]), make_algebra([3]), make_algebra([1, 1, 1])]
    per = max(1, c["gns_states"] // len(algebras))
    for alg in algebras:
        for _ in range(per):
            omega = random_state(alg, rng)
            res = gns(omega, TOL)
            for _ in range(5):
                x = random_element(alg, rng)
                y = random_element(alg, rng)
                lhs = complex(np.vdot(res.vector(x), res.vector(y)))
                rhs = scalar_value(apply(omega, mul(adjoint(x), y)))
                if abs(lhs - rhs) > 1e-8 * (1 + abs(rhs)):
                    return False, "inner product mismatch"
                fx = apply(res.rep, x)
                if res.hilbert_dim and np.linalg.norm(
                        fx.blocks[0] @ res.vector(y) - res.vector(mul(x, y))) > 1e-8:
                    return False, "representation does not intertwine"
            if not is_miu(res.rep, MIU_TOL):
                return False, "representation not miu at 1e-8"
            if not equal(carrier(res.rep, TOL), central_carrier(omega, TOL), TOL):
                return False, "carrier of the representation differs"
    for n in (2, 3):
        alg = make_algebra([n])
        omega = functional_from_density((1.0 / n) * alg.unit())
        if gns(omega, TOL).hilbert_dim != n * n:
            return False, f"trace state on {n}x{n} has wrong dimension"
    return True, f"{per * len(algebras)} states verified; trace states have full dimension"


# ---------------------------------------------------------------------------
# 8. Duplicability


def check_duplicability(level: str = "full", seed: int = 17) -> tuple[bool, str]:
    expected = {(1,): True, (1, 1, 1): True, (2,): False, (2, 1): False, (3,): False}
    for dims, want in expected.items():
        if is_duplicable(make_algebra(list(dims))) != want:
            return False, f"duplicability wrong on {dims}"
    m2 = make_algebra([2])
    witness = duplicability_witness(m2, samples=1000, seed=seed, tol=TOL)
    if witness is None:
        return False, "no witness for the matrix block"
    mmap = multiplication_map(m2)
    if is_positive(apply(mmap, witness), TOL):
        return False, "witness does not violate positivity"
    c3 = make_algebra([1, 1, 1])
    dup = duplicator(c3)
    if not is_completely_positive(dup, TOL):
        return False, "classical duplicator is not CP"
    if not is_effect(apply(dup, dup.dom.unit()), TOL):
        return False, "classical duplicator is not subunital"
    for x in c3.basis():
        if not (equal(apply(dup, _tensor_of(x, c3.unit())), x, TOL)
                and equal(apply(dup, _tensor_of(c3.unit(), x)), x, TOL)):
            return False, "unit law fails"
    if not maps_equal(dup, multiplication_map(c3), TOL):
        return False, "duplicator is not coordinatewise multiplication"
    return True, "verdicts correct on 5 algebras; witness found; unit laws hold"


# ---------------------------------------------------------------------------
# 9. Monoidal coherence


def _bijective_miu(f: LinMap, tol: ToleranceConfig) -> bool:
    return _is_bijective(f, tol) and is_miu(f, tol)


def check_monoidal_coherence(level: str = "full", seed: int = 19) -> tuple[bool, str]:
    c = _counts(level)
    rng = np.random.default_rng(seed)
    A, B, C = make_algebra([2]), make_algebra([1, 1]), make_algebra([2, 1])
    D = B
    checks = []
    checks.append(("associator", _bijective_miu(associator(A, B, C), TOL)))
    checks.append(("braiding", _bijective_miu(braiding(A, C), TOL)))
    checks.append(("left unitor", _bijective_miu(left_unitor(C), TOL)))
    checks.append(("right unitor", _bijective_miu(right_unitor(C), TOL)))
    checks.append(("distributor", _bijective_miu(distributor(A, [make_algebra([2]), make_algebra([1])]), TOL)))
    for name, ok in checks:
        if not ok:
            return False, f"{name} is not a miu bijection"

    # Pentagon on probes: both reassociation routes send a (x) (b (x) (c (x) d))
    # to ((a (x) b) (x) c) (x) d.
    AB = tensor_algebra(A, B).product
    top = compose(associator(AB, C, D), associator(A, B, tensor_algebra(C, D).product))
    step1 = _tensor_of_maps(identity_map(A), associator(B, C, D))
    step2 = associator(A, tensor_algebra(B, C).product, D)
    step3 = _tensor_of_maps(associator(A, B, C), identity_map(D))
    bottom = compose(step3, compose(step2, step1))
    probes_ok = 0
    for _ in range(c["coherence_probes"]):
        a = random_element(A, rng)
        b = random_element(B, rng)
        cc = random_element(C, rng)
        d = random_element(D, rng)
        x = _tensor_of(a, _tensor_of(b, _tensor_of(cc, d)))
        want = _tensor_of(_tensor_of(_tensor_of(a, b), cc), d)
        y1 = apply(top, x)
        y2 = apply(bottom, x)
        if not (_close(y1 - want, want, 1e-9) and _close(y2 - want, want, 1e-9)):
            return False, "pentagon routes disagree on a probe"
        probes_ok += 1

    # Triangle: (rho_A (x) id_C) o assoc = id_A (x) lambda_C on A (x) (S (x) C).
    S = FdAlgebra((1,))
    left = compose(_tensor_of_maps(right_unitor(A), identity_map(C)), associator(A, S, C))
    right = _tensor_of_maps(identity_map(A), left_unitor(C))
    if not maps_equal(left, right, TOL):
        return False, "triangle diagram does not commute"

    # Hexagon: assoc o braid o assoc = (braid (x) id) o assoc o (id (x) braid).
    lhs_hex = compose(associator(C, A, B),
                      compose(braiding(AB, C),
                              associator(A, B, C)))
    rhs_hex = compose(
        _tensor_of_maps(braiding(A, C), identity_map(B)),
        compose(associator(A, C, B),
                _tensor_of_maps(identity_map(A), braiding(B, C))))
    for _ in range(c["coherence_probes"]):
        a = random_element(A, rng)
        b = random_element(B, rng)
        cc = random_element(C, rng)
        x = _tensor_of(a, _tensor_of(b, cc))
        y1 = apply(lhs_hex, x)
        y2 = apply(rhs_hex, x)
        if not _close(y1 - y2, y1, 1e-9):
            return False, "hexagon routes disagree on a probe"

    # Braiding is involutive and the unitors agree on the scalar square.
    if not maps_equal(compose(braiding(C, A), braiding(A, C)),
                      identity_map(tensor_algebra(A, C).product), TOL):
        return False, "braiding composed with itself is not the identity"
    if not maps_equal(left_unitor(S), right_unitor(S), TOL):
        return False, "scalar unitors disagree"

    for _ in range(c["tensor_pairs"]):
        x = random_positive(A, rng)
        y = random_positive(C, rng)
        lhs = snap_projection(ceiling(_tensor_of(x, y), TOL), TOL)
        rhs = _tensor_of(snap_projection(ceiling(x, TOL), TOL),
                         snap_projection(ceiling(y, TOL), TOL))
        if not equal(lhs, rhs, TOL):
            return False, "ceiling does not distribute over the tensor"
    return True, f"isos verified; pentagon/triangle/hexagon on {probes_ok} probes; " \
                 f"ceiling-tensor on {c['tensor_pairs']} pairs"


# ---------------------------------------------------------------------------
# 10. Inequality corpus


def check_inequality_corpus(level: str = "full", seed: int = 29) -> tuple[bool, str]:
    c = _counts(level)
    rng = np.random.default_rng(seed)
    alg = make_algebra([2, 1])
    n = c["corpus_trials"]
    for _ in range(max(10, n // 4)):
        omega = random_state(alg, rng)
        a = random_element(alg, rng)
        b = random_element(alg, rng)
        val = abs(scalar_value(apply(omega, mul(adjoint(a), b)))) ** 2
        bound = scalar_value(apply(omega, mul(adjoint(a), a))).real * \
            scalar_value(apply(omega, mul(adjoint(b), b))).real
        if val > bound * (1 + 1e-9) + 1e-12:
            return False, "Kadison inequality fails"
    m2 = make_algebra([2])
    for _ in range(max(5, n // 10)):
        f = random_cp_map(m2, m2, rng)
        a = random_element(m2, rng)
        b = random_element(m2, rng)
        lhs = mul(apply(f, mul(adjoint(a), b)), apply(f, mul(adjoint(b), a)))
        rhs = operator_norm(apply(f, mul(adjoint(b), b))) * apply(f, mul(adjoint(a), a))
        if not is_positive(rhs - lhs, ToleranceConfig(1e-7, 1e-9, 1e-6)):
            return False, "CP Cauchy-Schwarz fails"
    # Multiplicativity propagates from a single unitary-image point.
    m3 = make_algebra([3])
    for _ in range(max(5, n // 10)):
        p = random_projection(m3, rng)
        pinch = make_map(m3, m3, [
            add(mul(mul(p, e), p),
                mul(mul(orthosupplement(p), e), orthosupplement(p)))
            for e in m3.basis()])
        a = p
        if operator_norm(apply(pinch, mul(adjoint(a), a))
                         - mul(adjoint(apply(pinch, a)), apply(pinch, a))) > 1e-9:
            return False, "pinching premise fails"
        for b in m3.basis():
            lhs = apply(pinch, mul(b, a))
            rhs = mul(apply(pinch, b), apply(pinch, a))
            if operator_norm(lhs - rhs) > 1e-8:
                return False, "one-point multiplicativity fails"
    # Norm attained at the unit over the sampled self-adjoint unit ball.
    for _ in range(3):
        f = random_cpu_map(m2, m2, rng)
        cap = operator_norm(apply(f, m2.unit()))
        for _ in range(200):
            a = random_self_adjoint(m2, rng)
            nrm = operator_norm(a)
            if nrm == 0:
                continue
            a = scalar_mul(1.0 / nrm, a)
            if operator_norm(apply(f, a)) > cap + 1e-9:
                return False, "positive map exceeds its unit norm"
    # Concrete numbers.
    m2a = m2.element([np.array([[0.0, 2.0], [0.0, 0.0]])])
    if abs(operator_norm(m2a) - 2.0) > 1e-12:
        return False, "norm of the nilpotent is not 2"
    sp = spectrum(m2a, TOL)
    if max(abs(v) for v in sp.values) > 1e-9:
        return False, "nilpotent spectrum is not {0}"
    thetas = np.linspace(0.0, np.pi, 20001)
    vals = np.abs(np.cos(thetas) * np.sin(thetas))
    if abs(float(vals.max()) - 0.5) > 1e-6:
        return False, "vector-state supremum is not 1/2"
    a = m2.element([np.array([[1.0, 0.0], [0.0, 0.0]])])
    b = add(a, m2.element([0.5 * np.ones((2, 2))]))
    if not leq(a, b, TOL):
        return False, "hint instance is not ordered"
    if is_positive(mul(b, b) - mul(a, a), TOL):
        return False, "squares unexpectedly ordered at the hint instance"
    return True, "Kadison, CP Cauchy-Schwarz, one-point multiplicativity, " \
                 "sampled norm bound, and all concrete numbers reproduced"


CHECKS = [
    ("seqprod-axioms", check_seqprod_axioms),
    ("square-root-axiom", check_square_root_axiom),
    ("choi-npos-agreement", check_choi_agreement),
    ("division-polar", check_division_polar),
    ("lattice-identities", check_lattice_identities),
    ("wedderburn-recovery", check_wedderburn_recovery),
    ("gns-invariants", check_gns),
    ("duplicability", check_duplicability),
    ("monoidal-coherence", check_monoidal_coherence),
    ("inequality-corpus", check_inequality_corpus),
]


def run_suite(level: str = "smoke") -> list[tuple[str, bool, str]]:
    results = []
    for name, fn in CHECKS:
        try:
            ok, detail = fn(level)
        except Exception as exc:  # surface, don't swallow
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append((name, ok, detail))
    return results
