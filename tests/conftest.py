"""Shared test fixtures."""

from fractions import Fraction

import pytest

from hecke_kit import repmod, twists
from hecke_kit.hecke import _DESCENT_A, HeckeElement, _add_term
from hecke_kit.scalars import A, B, BiPoly


@pytest.fixture
def plant_induce_fault(monkeypatch):
    """Plant a fault in induction: every induced descent entry a0 becomes
    a0 + e(a0), with e(a) = a(a-1)(a-2)(a+1), which vanishes at all four
    battery points.  repmod and twists see the faulty function; mackey keeps
    the real one, so the Mackey blocks it induces stay fault-free."""
    real = repmod.induce

    def faulty(M, J):
        big = real(M, J)
        sys, d = big.system, M.dim
        a0 = Fraction(M.params.a0)
        bad = a0 + a0 * (a0 - 1) * (a0 - 2) * (a0 + 1)
        for j, mat in big.gen_action.items():
            for t, g in enumerate(big.induced.transversal):
                if sys.length[sys.left_table[g][j]] < sys.length[g]:
                    for k in range(d):
                        mat.set_entry(t * d + k, t * d + k, bad)
        return big

    for module in (repmod, twists):
        monkeypatch.setattr(module, "induce", faulty)


# faults in the left generator rule: (generator, length of w, descent a-term)
# -> the (a, b) coefficients of a descent step
LEFT_RULE_FAULTS = {
    "b doubled on s1": lambda s, n, a: (a, B + B if s == 0 else B),
    "a dropped on s2 descents of length >= 3": lambda s, n, a: (
        BiPoly.zero() if s == 1 and n >= 3 else a, B),
    "extra a^2 - a at length 5": lambda s, n, a: (a + A * A - A if n == 5 else a, B),
}


@pytest.fixture
def plant_left_rule_fault(monkeypatch):
    """Returns plant(name): replaces HeckeElement._gen_left, in both bases,
    by a copy with the named fault from LEFT_RULE_FAULTS."""
    def plant(name):
        fault = LEFT_RULE_FAULTS[name]

        def faulty(self, s, coeffs):
            sys = self.system
            length, table = sys.length, sys.left_table
            out = {}
            for w, c in coeffs.items():
                sw = table[w][s]
                if length[sw] > length[w]:
                    _add_term(out, sw, c)
                else:
                    a, b = fault(s, length[w], _DESCENT_A[self.basis])
                    _add_term(out, w, c * a)
                    _add_term(out, sw, c * b)
            return out

        monkeypatch.setattr(HeckeElement, "_gen_left", faulty)

    return plant
