"""Each independent check accepts the program's output and rejects a corrupted one.

    python3 -m pytest perfbench/test_checks.py -q

Corruptions change one coefficient, one matrix entry or one report field,
the smallest faults a broken layer could produce.
"""

import json
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import pytest  # noqa: E402

from hecke_kit import coxeter, hecke, mackey, repmod, twists  # noqa: E402
from hecke_kit.linalg import RatMat  # noqa: E402
from hecke_kit.scalars import BiPoly, ParamSpec  # noqa: E402

import checks  # noqa: E402
import layertrace  # noqa: E402
import workloads  # noqa: E402

P23 = ParamSpec.parse("2,3")


def _bump(elem, w, term=(0, 0)):
    """A copy of a Hecke element with one integer coefficient changed by one."""
    coeffs = dict(elem.coeffs)
    terms = dict(coeffs.get(w, BiPoly.zero()).terms)
    terms[term] = terms.get(term, 0) + 1
    coeffs[w] = BiPoly(terms)
    return hecke.HeckeElement(elem.system, coeffs, elem.basis)


def _bump_entry(mat, r, c):
    out = mat.copy()
    out.set_entry(r, c, out.entry(r, c) + 1)
    return out


def test_group_orders_match_degrees():
    for name in ("A3", "B3", "I2(5)", "H3", "H4"):
        assert checks.check_group_order(coxeter.get_system(name), name) == []

    class Fake:
        size = 25
    assert checks.check_group_order(Fake, "A3")


@pytest.mark.parametrize("term", [(0, 0), (1, 1), (2, 1)])
def test_basis_product_rejects_one_changed_coefficient(term):
    b3 = coxeter.get_system("B3")
    v, w = b3.longest(), b3.by_length[30]
    x, y = hecke.HeckeElement.basis_elt(b3, v), hecke.HeckeElement.basis_elt(b3, w)
    prod = x * y
    assert checks.check_basis_product(b3, v, w, {"direct": prod}) == []
    target = max(prod.coeffs, key=lambda u: len(prod.coeffs[u].terms))
    assert checks.check_basis_product(b3, v, w, {"direct": _bump(prod, target, term)})


def test_morphism_images_reject_changed_images():
    sys_ = coxeter.get_system("A3")
    w = sys_.by_length[10]
    x = hecke.HeckeElement.basis_elt(sys_, w)
    specs = {"phi": hecke.phi(sys_), "theta": hecke.theta(sys_), "chi": hecke.chi(sys_)}
    images = {t: hecke.apply_morphism(s, x) for t, s in specs.items()}
    twice = {t: hecke.apply_morphism(specs[t], img) for t, img in images.items()}
    assert checks.check_morphism_images(sys_, w, images, twice) == []
    for tag in images:
        bad = dict(images)
        bad[tag] = _bump(images[tag], next(iter(images[tag].coeffs)), (1, 1))
        assert checks.check_morphism_images(sys_, w, bad, twice)
    bad_twice = dict(twice)
    bad_twice["theta"] = _bump(twice["theta"], w)
    assert checks.check_morphism_images(sys_, w, images, bad_twice)


def _mackey_instance():
    a3 = coxeter.get_system("A3")
    I, J = frozenset({0, 1}), frozenset({0, 2})
    inst = mackey.build_sides(a3, I, J, repmod.regular(a3, I, P23))
    return inst, *mackey.build_transfer_maps(inst)


def test_mackey_check_rejects_changed_transfer_map():
    inst, fwd, bwd = _mackey_instance()
    assert checks.check_mackey(inst, fwd, bwd) == []
    fwd.matrix = _bump_entry(fwd.matrix, 0, 0)
    assert checks.check_mackey(inst, fwd, bwd)


def test_mackey_check_rejects_changed_generator_action():
    inst, fwd, bwd = _mackey_instance()
    inst.lhs.gen_action[0] = _bump_entry(inst.lhs.gen_action[0], 3, 5)
    assert checks.check_mackey(inst, fwd, bwd)


def test_mackey_check_rejects_wrong_dimension():
    inst, fwd, bwd = _mackey_instance()
    inst.blocks[0].module.dim += 1
    assert checks.check_mackey(inst, fwd, bwd)


def test_module_map_check_rejects_changed_entry():
    s2 = coxeter.symmetric_group_system(2)
    M = N = repmod.regular(s2, s2.full_subset, P23)
    fmap = twists.thm44_part2_map(M, N)
    assert checks.check_module_map(fmap.source, fmap.target, fmap.matrix, fmap.subset) == []
    bad = _bump_entry(fmap.matrix, 1, 2)
    assert checks.check_module_map(fmap.source, fmap.target, bad, fmap.subset)


def test_module_map_check_rejects_singular_map():
    s2 = coxeter.symmetric_group_system(2)
    M = repmod.regular(s2, s2.full_subset, P23)
    zero = M.gen_action[0].scale(0)
    assert "map is not invertible" in checks.check_module_map(M, M, zero, M.subset)


def test_own_invertibility_is_exact_on_small_cases():
    assert checks.invertible([{0: Fraction(2147483647)}], 1)
    assert checks.invertible([{0: Fraction(1, 3)}, {1: Fraction(5)}], 2)
    assert not checks.invertible([{0: Fraction(1), 1: Fraction(2)},
                                  {0: Fraction(2), 1: Fraction(4)}], 2)


def test_report_check_rejects_one_failed_check():
    inst, _, _ = _mackey_instance()
    text = mackey.verify(inst).to_json()
    want = checks.mackey_check_names(inst.J)
    assert checks.check_report(text, want) == []
    obj = json.loads(text)
    obj["checks"][2]["ok"] = False
    assert checks.check_report(json.dumps(obj), want)


def _reports():
    """A real report of every verifier the workloads call, with the checks
    its method must report."""
    inst, _, _ = _mackey_instance()
    yield mackey.verify(inst), checks.mackey_check_names(inst.J)
    s2 = coxeter.symmetric_group_system(2)
    M = N = repmod.regular(s2, s2.full_subset, P23)
    yield mackey.verify_tensor_decomposition(M, N, 2), checks.tensor_check_names(2, 2, 2)
    yield twists.verify_thm44(M, N), checks.thm44_check_names(2, 2, 2, 2)
    yield twists.verify_thm48(M, N, cross_check=True), checks.thm48_check_names()


def test_report_check_rejects_any_missing_check():
    for rep, want in _reports():
        text = rep.to_json()
        assert checks.check_report(text, want) == [], rep.title
        obj = json.loads(text)
        for k in range(len(obj["checks"])):
            cut = dict(obj, checks=obj["checks"][:k] + obj["checks"][k + 1:])
            assert checks.check_report(json.dumps(cut), want), (rep.title, k)


def test_thm44_names_drop_the_search_only_above_its_size():
    assert sum("isomorphism" in n for n in checks.thm44_check_names(2, 2, 2, 2)) == 6
    assert not any("isomorphism" in n for n in checks.thm44_check_names(3, 2, 6, 2))


def test_tensor_dims_reject_changed_block():
    s2 = coxeter.symmetric_group_system(2)
    M = N = repmod.regular(s2, s2.full_subset, P23)
    text = mackey.verify_tensor_decomposition(M, N, 2).to_json()
    assert checks.check_tensor_dims(text, 2, 2, 2, 2, 2) == []
    obj = json.loads(text)
    obj["instance"]["blocks"][0]["dim"] += 1
    assert checks.check_tensor_dims(json.dumps(obj), 2, 2, 2, 2, 2)


@pytest.mark.parametrize("name", ["algebra", "modules", "rational"])
def test_workload_inputs_follow_the_seed(name):
    a, b, c = (workloads.BUILD[name](seed) for seed in (3, 3, 4))
    assert [i.label for i in a.instances] == [i.label for i in b.instances]
    assert len(a.instances) >= 40
    if name == "algebra":
        assert [i.label for i in a.instances] != [i.label for i in c.instances]
    else:
        k = next(k for k, i in enumerate(a.instances)
                 if " random " in i.label and "I=[]" not in i.label)

        def module(wl):
            M = wl.instances[k].run()[1].M
            return [M.gen_action[j].to_rows() for j in sorted(M.subset)]
        assert module(a) == module(b) != module(c)


def test_tracer_restores_the_program_and_nests_spans():
    originals = (repmod.induce, mackey.induce, hecke.HeckeElement.__mul__,
                 RatMat.__dict__["__matmul__"])
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        assert mackey.induce is not originals[1]
        inst, _, _ = _mackey_instance()
        mackey.verify(inst)
    finally:
        tracer.uninstall()
    assert (repmod.induce, mackey.induce, hecke.HeckeElement.__mul__,
            RatMat.__dict__["__matmul__"]) == originals
    totals = tracer.take_totals()
    assert totals["repmod.induce.calls"] >= 3 and totals["linalg.matmul.calls"] > 0
    ids = {s[0] for s in tracer.spans}
    assert all(s[4] == -1 or s[4] in ids for s in tracer.spans)
    assert all(s[2] <= s[3] for s in tracer.spans)
    assert all(totals[m] >= 0 for m in layertrace.METRICS)

