import itertools
import random

import pytest

from hecke_kit.coxeter import CoxeterMatrix, CoxeterSystem, NotDoubleCosetMinimal, get_system
from hecke_kit.hecke import (
    BasisMismatch,
    HeckeElement,
    MorphismSpec,
    SupportOutsideDomain,
    apply_morphism,
    c_w_morphism,
    check_conjugation_commutation,
    check_theta_braid,
    chi,
    omega,
    omega_hat,
    phi,
    phi_hat,
    theta,
    theta_hat,
)
from hecke_kit.scalars import A, B, BiPoly

S3 = get_system("A2")
S4 = get_system("A3")
B3 = get_system("B3")

E = HeckeElement.basis_elt
G = HeckeElement.gen


def unit(sys, basis="pi"):
    return HeckeElement.unit(sys, basis)


def rand_elem(rng, sys, basis="pi", max_terms=3):
    pool = [BiPoly.const(1), BiPoly.const(-2), BiPoly.const(3), A, B, A * B, A + B]
    coeffs = {}
    for _ in range(rng.randint(1, max_terms)):
        w = rng.randrange(sys.size)
        coeffs[w] = coeffs.get(w, BiPoly.zero()) + rng.choice(pool)
    return HeckeElement(sys, coeffs, basis)


def test_quadratic_rule():
    s1 = G(S3, 0)
    assert s1 * s1 == s1.scale(A) + unit(S3).scale(B)


def test_length_additive_product():
    prod = G(S3, 0) * G(S3, 1)
    assert prod == E(S3, S3.word_to_elem([0, 1]))


def test_descent_product_frozen():
    # s1 * (s1 s2) drops length, so the descent rule applies
    w = S3.word_to_elem([0, 1])
    prod = G(S3, 0) * E(S3, w)
    expected = HeckeElement(S3, {w: A, S3.gens[1]: B})
    assert prod == expected


def test_rendering():
    w = S3.word_to_elem([0, 1])
    prod = G(S3, 0) * E(S3, w)
    assert str(prod) == "(a)*pi[s1*s2] + (b)*pi[s2]"
    assert str(HeckeElement.zero(S3)) == "0"
    assert str(unit(S3)) == "(1)*pi[e]"
    assert str(unit(S3, "opi")) == "(1)*opi[e]"


def test_products_expand_in_basis_exhaustive_s4():
    for v in range(S4.size):
        pv = E(S4, v)
        for w in range(S4.size):
            prod = pv * E(S4, w)
            assert all(0 <= u < S4.size for u in prod.support())
            if S4.length[v] + S4.length[w] == S4.length[S4.mult(v, w)]:
                assert prod == E(S4, S4.mult(v, w))


def test_length_additive_products_sampled_b3():
    rng = random.Random(30)
    hits = 0
    for _ in range(250):
        v, w = rng.randrange(B3.size), rng.randrange(B3.size)
        if B3.length[v] + B3.length[w] != B3.length[B3.mult(v, w)]:
            continue
        assert E(B3, v) * E(B3, w) == E(B3, B3.mult(v, w))
        hits += 1
    assert hits > 20


def test_associativity_and_unit_laws():
    rng = random.Random(31)
    one = unit(S4)
    for _ in range(50):
        x, y, z = (rand_elem(rng, S4) for _ in range(3))
        assert (x * y) * z == x * (y * z)
        assert one * x == x and x * one == x
    # opi basis multiplication is associative too
    for _ in range(25):
        x, y, z = (rand_elem(rng, S4, basis="opi") for _ in range(3))
        assert (x * y) * z == x * (y * z)


def test_opi_quadratic_frozen():
    s1 = G(S3, 0, "opi")
    expected = HeckeElement(S3, {S3.gens[0]: -A, 0: B}, "opi")
    assert s1 * s1 == expected


def test_change_basis_frozen_examples():
    # opi_{s1} = pi_{s1} - a*pi_e
    got = G(S3, 0, "opi").change_basis("pi")
    assert got == HeckeElement(S3, {S3.gens[0]: BiPoly.one(), 0: -A})
    # pi_{s1 s2} = opi_{s1 s2} + a*opi_{s1} + a*opi_{s2} + a^2*opi_e
    w = S3.word_to_elem([0, 1])
    got = E(S3, w).change_basis("opi")
    expected = HeckeElement(S3, {w: BiPoly.one(), S3.gens[0]: A, S3.gens[1]: A, 0: A * A}, "opi")
    assert got == expected


def test_change_basis_round_trip_and_compatibility():
    rng = random.Random(32)
    for sys in (S4, B3):
        for _ in range(20):
            x = rand_elem(rng, sys)
            assert x.change_basis("opi").change_basis("pi") == x
            y = rand_elem(rng, sys, basis="opi")
            assert y.change_basis("pi").change_basis("opi") == y
    # multiplication commutes with the change of basis
    for _ in range(15):
        x, y = rand_elem(rng, S4), rand_elem(rng, S4)
        assert (x * y).change_basis("opi") == x.change_basis("opi") * y.change_basis("opi")


@pytest.mark.parametrize("name", ["B3", "I2(5)", "H3"])
def test_change_basis_is_the_product_of_shifted_generators(name):
    # pi_w = prod (opi_s + a) and opi_w = prod (pi_s - a) over w's reduced word
    sys = get_system(name)
    a_pi, a_opi = unit(sys).scale(A), unit(sys, "opi").scale(A)
    for w in range(sys.size):
        to_opi, to_pi = unit(sys, "opi"), unit(sys)
        for s in reversed(sys.reduced_word(w)):
            to_opi = (G(sys, s, "opi") + a_opi) * to_opi
            to_pi = (G(sys, s) - a_pi) * to_pi
        assert E(sys, w).change_basis("opi") == to_opi
        assert E(sys, w, "opi").change_basis("pi") == to_pi


def test_basis_change_table_lives_on_each_system():
    one, two = (CoxeterSystem(CoxeterMatrix.named("B3")) for _ in range(2))
    for sys in (one, two):
        for w in range(sys.size):
            E(sys, w).change_basis("opi")
            E(sys, w, "opi").change_basis("pi")
    assert one.basis_change_rows is not two.basis_change_rows
    assert set(one.basis_change_rows) == {"pi", "opi"}
    for to in ("pi", "opi"):
        rows = one.basis_change_rows[to][0]
        assert len(rows) == one.size
        assert rows == two.basis_change_rows[to][0]
    assert get_system("A2").basis_change_rows is not get_system("A3").basis_change_rows


def test_basis_mismatch():
    with pytest.raises(BasisMismatch):
        G(S3, 0) * G(S3, 0, "opi")
    with pytest.raises(BasisMismatch):
        G(S3, 0) + G(S3, 0, "opi")
    assert G(S3, 0) != G(S3, 0, "opi")


def test_morphism_validation_rejects_bad_images():
    with pytest.raises(ValueError, match="quadratic"):
        MorphismSpec(S3, "auto", {0: G(S3, 0).scale(2), 1: G(S3, 1)})
    # a - pi_{s2} alone is fine but breaks the braid relation against pi_{s1}
    with pytest.raises(ValueError, match="braid"):
        MorphismSpec(S3, "auto", {0: G(S3, 0), 1: unit(S3).scale(A) - G(S3, 1)})


def test_standard_morphisms_are_involutions():
    for sys in (S4, B3):
        mors = [phi(sys), theta(sys), chi(sys), omega(sys)]
        for mor in mors:
            for w in range(sys.size):
                x = E(sys, w)
                assert apply_morphism(mor, apply_morphism(mor, x)) == x


def test_standard_morphisms_commute_on_generators():
    for sys in (S4, B3):
        f, t, c, o = phi(sys), theta(sys), chi(sys), omega(sys)
        for i in range(sys.rank):
            x = G(sys, i)
            assert f(t(x)) == t(f(x))
            assert f(c(x)) == c(f(x))
            assert t(c(x)) == c(t(x))
            assert o(x) == f(t(x))


def test_phi_theta_frozen_examples():
    assert apply_morphism(phi(S3), G(S3, 0)) == G(S3, 1)
    assert apply_morphism(theta(S3), G(S3, 0)) == unit(S3).scale(A) - G(S3, 0)


def test_chi_reverses_reduced_words():
    w = S3.word_to_elem([0, 1])
    assert apply_morphism(chi(S3), E(S3, w)) == E(S3, S3.word_to_elem([1, 0]))
    for u in range(S4.size):
        assert apply_morphism(chi(S4), E(S4, u)) == E(S4, S4.inverse[u])


def test_chi_is_an_antihomomorphism():
    rng = random.Random(33)
    c = chi(S4)
    for _ in range(100):
        x, y = rand_elem(rng, S4), rand_elem(rng, S4)
        assert c(x * y) == c(y) * c(x)


def test_auto_morphisms_are_homomorphisms():
    rng = random.Random(34)
    for mor in (phi(S4), theta(S4), omega(S4)):
        for _ in range(25):
            x, y = rand_elem(rng, S4), rand_elem(rng, S4)
            assert mor(x * y) == mor(x) * mor(y)


def test_hats_compose_with_the_word_reversal():
    rng = random.Random(35)
    c = chi(S4)
    for hat, plain in ((phi_hat(S4), phi(S4)), (theta_hat(S4), theta(S4)), (omega_hat(S4), omega(S4))):
        assert hat.kind == "anti"
        for _ in range(15):
            x = rand_elem(rng, S4)
            assert hat(x) == plain(c(x))


def test_c_w_morphism_examples():
    # in S4 the generator s3 commutes with s1, so conjugation fixes it
    spec = c_w_morphism(S4, S4.gens[2], {0, 1}, {0, 1})
    assert set(spec.domain) == {0}
    assert spec(G(S4, 0)) == G(S4, 0)
    # the identity element induces the identity morphism on the overlap
    spec_e = c_w_morphism(S4, 0, {0, 1}, {1, 2})
    assert set(spec_e.domain) == {1}
    assert spec_e(G(S4, 1)) == G(S4, 1)
    with pytest.raises(NotDoubleCosetMinimal):
        c_w_morphism(S4, S4.gens[0], {0}, {0})


def test_c_w_commutation_frozen_example():
    spec = c_w_morphism(S4, S4.gens[2], {0, 1}, {0, 1})
    lhs = G(S4, 0) * E(S4, S4.gens[2])
    rhs = E(S4, S4.gens[2]) * spec(G(S4, 0))
    assert lhs == rhs


def test_conjugation_commutation_exhaustive_s4():
    subsets = [frozenset(s) for r in range(4) for s in itertools.combinations(range(3), r)]
    for J in subsets:
        for I in subsets:
            for tau in S4.double_coset_reps(J, I):
                assert check_conjugation_commutation(S4, tau, J, I)
                spec = c_w_morphism(S4, tau, J, I)
                dom = sorted(spec.domain)
                # multiplicative on generator pairs of the cross-section
                for j1 in dom:
                    for j2 in dom:
                        assert spec(G(S4, j1) * G(S4, j2)) == spec(G(S4, j1)) * spec(G(S4, j2))
                # basis elements map bijectively onto the conjugate parabolic
                images = set()
                for kappa in S4.parabolic_elements(spec.domain):
                    img = spec(E(S4, kappa))
                    assert len(img.support()) == 1
                    images.add(next(iter(img.support())))
                assert images == set(S4.parabolic_elements(spec.codomain))


def test_apply_outside_domain_raises():
    spec = c_w_morphism(S4, S4.gens[2], {0, 1}, {0, 1})
    with pytest.raises(SupportOutsideDomain):
        spec(G(S4, 1))


def test_theta_braid_identity_holds():
    for sys in (S3, S4, B3, get_system("I2(5)"), get_system("I2(6)")):
        for i in range(sys.rank):
            for j in range(sys.rank):
                if i != j:
                    assert check_theta_braid(sys, i, j)


def test_theta_braid_commuting_pair_frozen():
    # m = 2: both sides equal pi_i*pi_j - a*pi_i - a*pi_j + a^2
    i, j = 0, 2
    lhs = (G(S4, i) - unit(S4).scale(A)) * (G(S4, j) - unit(S4).scale(A))
    expected = (
        E(S4, S4.mult(S4.gens[i], S4.gens[j]))
        - G(S4, i).scale(A)
        - G(S4, j).scale(A)
        + unit(S4).scale(A * A)
    )
    assert lhs == expected


def test_coefficient_specialization():
    x = HeckeElement(S3, {0: A * A + B, S3.gens[0]: -B})
    from hecke_kit.scalars import ParamSpec

    vals = x.specialize_coeffs(ParamSpec.parse("2,3"))
    assert vals == {0: 7, S3.gens[0]: -3}


def test_scalar_multiplication_operators():
    x = G(S3, 0)
    assert 2 * x == x + x
    assert x * 2 == x + x
    assert A * (x.scale(B)) == x.scale(A * B)
