"""Every residual check is decided by the one exact comparison.

With every binding of `_cleared_gap` patched to report a gap of 1, no check
that carries a residual may pass: a check that still reads ok is decided by
some other code path, which a fault in the primitive's tests cannot reach.
"""

import sys

import pytest

from hecke_kit import repmod
from hecke_kit.coxeter import get_system, symmetric_group_system
from hecke_kit.mackey import build_sides, verify, verify_tensor_decomposition
from hecke_kit.repmod import one_dim_factor, regular
from hecke_kit.scalars import ParamSpec
from hecke_kit.twists import verify_thm44, verify_thm48

P23 = ParamSpec.parse("2,3")


def mackey_report():
    A3 = get_system("A3")
    return verify(build_sides(A3, {0, 1}, {0, 2}, regular(A3, {0, 1}, P23)))


def factors():
    s1, s2 = symmetric_group_system(1), symmetric_group_system(2)
    return regular(s2, s2.full_subset, P23), one_dim_factor(s1, s1.full_subset, P23)


REPORTS = {
    "mackey": mackey_report,
    "tensor": lambda: verify_tensor_decomposition(*factors(), 1),
    "thm44": lambda: verify_thm44(*factors(), cross_check=False),
    "thm48": lambda: verify_thm48(*factors(), cross_check=False),
}


@pytest.mark.parametrize("which", sorted(REPORTS))
def test_every_residual_check_reads_the_primitive(which, monkeypatch):
    real = repmod._cleared_gap
    bindings = [(mod, name) for key, mod in list(sys.modules.items())
                if key.startswith("hecke_kit") and mod is not None
                for name, value in vars(mod).items() if value is real]
    assert bindings
    for mod, name in bindings:
        monkeypatch.setattr(mod, name, lambda left, right, denom: 1)
    residual_checks = [c for c in REPORTS[which]().checks if c.residual is not None]
    assert residual_checks
    assert [c.name for c in residual_checks if c.ok] == []
