"""Independent output checks, computed apart from the program.

Everything here reads the program's outputs as plain data (term dicts of
`BiPoly`, coefficient dicts of `HeckeElement`, column dicts of `RatMat`,
serialized JSON reports) and recomputes what they must be with its own exact
arithmetic.  No `RatMat` method, no `BiPoly` operation and no Hecke
multiplication is used, so a fault in those layers cannot hide itself.

Each check returns a list of failure messages; an empty list means the
output passed.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import comb, gcd, prod

# primes chosen apart from the ones linalg probes with
_PRIMES = (1000003, 998244353, 1000000007)

# degrees of the finite Coxeter groups; |W| is their product
_DEGREES = {"H3": (2, 6, 10), "H4": (2, 12, 20, 30)}


def degrees(name: str) -> tuple[int, ...]:
    """Degrees of a named finite Coxeter group (An, Bn, I2(m), H3, H4)."""
    if name in _DEGREES:
        return _DEGREES[name]
    if name.startswith("I2("):
        return (2, int(name[3:-1]))
    family, n = name[0], int(name[1:])
    if family == "A":
        return tuple(range(2, n + 2))
    if family == "B":
        return tuple(range(2, 2 * n + 1, 2))
    raise ValueError(f"no degree table for {name!r}")


# -- group data from the tables ----------------------------------------------


def reduced_word(system, w: int) -> list[int]:
    """A reduced word of w, found by descending through the length table."""
    table, length = system.right_table, system.length
    letters = []
    while w:
        s = next(s for s in range(system.rank) if length[table[w][s]] < length[w])
        letters.append(s)
        w = table[w][s]
    return letters[::-1]


def parabolic_size(system, subset) -> int:
    """|W_I| by a breadth-first search over the right multiplication table."""
    seen = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for w in frontier:
            for s in subset:
                u = system.right_table[w][s]
                if u not in seen:
                    seen.add(u)
                    nxt.append(u)
        frontier = nxt
    return len(seen)


def fold_products(system, v: int, w: int) -> tuple[int, int, int | None]:
    """Group, Demazure and nil-Coxeter products of v and w from the tables.

    The nil-Coxeter product is None (zero) when lengths do not add.
    """
    table, length = system.right_table, system.length
    group = demazure = v
    nil: int | None = v
    for s in reduced_word(system, w):
        group = table[group][s]
        if length[table[demazure][s]] > length[demazure]:
            demazure = table[demazure][s]
        if nil is not None:
            nil = table[nil][s] if length[table[nil][s]] > length[nil] else None
    return group, demazure, nil


def specialize(coeffs: dict, a0, b0) -> dict:
    """Evaluate the `BiPoly` coefficients of a Hecke element at (a0, b0)."""
    out = {}
    for w, poly in coeffs.items():
        total = sum(c * Fraction(a0) ** i * Fraction(b0) ** j
                    for (i, j), c in poly.terms.items())
        if total:
            out[w] = total
    return out


def fold_specialized(system, start: dict, letters, a0, b0, shift=None) -> dict:
    """Right-multiply a specialized element by one factor per letter.

    Each factor is pi_s, or (shift - pi_s) when shift is given; pi_s acts by
    the specialized quadratic rule read off the length table.
    """
    table, length = system.right_table, system.length
    cur = dict(start)
    for s in letters:
        nxt: dict = {}
        for x, c in cur.items():
            xs = table[x][s]
            sign = -1 if shift is not None else 1
            if length[xs] > length[x]:
                nxt[xs] = nxt.get(xs, 0) + sign * c
            else:
                nxt[x] = nxt.get(x, 0) + sign * c * a0
                nxt[xs] = nxt.get(xs, 0) + sign * c * b0
            if shift is not None:
                nxt[x] = nxt.get(x, 0) + c * shift
        cur = {x: c for x, c in nxt.items() if c}
    return cur


def check_basis_product(system, v: int, w: int, products) -> list[str]:
    """Every product of pi_v and pi_w specializes to the three folded products.

    A fourth point, (2, 3), is folded with the generic specialized rule; no
    monomial vanishes there, so it catches any single changed coefficient.
    """
    group, demazure, nil = fold_products(system, v, w)
    want = {
        (0, 1): {group: 1},
        (1, 0): {demazure: 1},
        (0, 0): {} if nil is None else {nil: 1},
        (2, 3): fold_specialized(system, {v: 1}, reduced_word(system, w), 2, 3),
    }
    bad = []
    for label, elem in products.items():
        if elem.basis != "pi":
            bad.append(f"{label}: product left in basis {elem.basis!r}")
            continue
        for (a0, b0), expect in want.items():
            if specialize(elem.coeffs, a0, b0) != expect:
                bad.append(f"{label}: wrong specialization at ({a0},{b0}) for pair ({v},{w})")
    return bad


def check_morphism_images(system, w: int, images: dict, twice: dict) -> list[str]:
    """phi, chi and theta images of pi_w against the tables; involutions.

    phi(pi_w) = pi_{w0 w w0}, chi(pi_w) = pi_{w^-1}, and theta(pi_w) is the
    product of (a - pi_s) over a reduced word, checked at four points.
    `twice` holds each morphism applied to its own image.
    """
    bad = []
    word = reduced_word(system, w)
    w0 = max(range(system.size), key=lambda x: system.length[x])
    conj = 0
    for s in reduced_word(system, w0) + word + reduced_word(system, w0):
        conj = system.right_table[conj][s]
    inv = 0
    for s in reversed(word):
        inv = system.right_table[inv][s]
    for name, target in (("phi", conj), ("chi", inv)):
        got = {x: p.terms for x, p in images[name].coeffs.items()}
        if got != {target: {(0, 0): 1}}:
            bad.append(f"{name}: image of basis element {w} is wrong")
    for a0, b0 in ((0, 1), (1, 0), (0, 0), (2, 3)):
        want = fold_specialized(system, {0: 1}, word, a0, b0, shift=a0)
        if specialize(images["theta"].coeffs, a0, b0) != want:
            bad.append(f"theta: image of basis element {w} is wrong at ({a0},{b0})")
    for name, elem in twice.items():
        got = {x: p.terms for x, p in elem.coeffs.items()}
        if got != {w: {(0, 0): 1}}:
            bad.append(f"{name}: applying it twice is not the identity on {w}")
    return bad


# -- exact matrices as lists of column dicts ----------------------------------


def columns(mat) -> list[dict]:
    """A copy of a matrix's columns as {row: Fraction} dicts, zeros dropped."""
    return [{r: Fraction(v) for r, v in col.items() if v} for col in mat.cols]


def matmul(a: list[dict], b: list[dict]) -> list[dict]:
    out = []
    for bcol in b:
        acc: dict = {}
        for k, bv in bcol.items():
            for r, av in a[k].items():
                acc[r] = acc.get(r, 0) + av * bv
        out.append({r: v for r, v in acc.items() if v})
    return out


def quadratic_holds(gen: list[dict], a0, b0) -> bool:
    """G*G == a0*G + b0*Id, entry by entry."""
    sq = matmul(gen, gen)
    for j, col in enumerate(gen):
        want = {r: a0 * v for r, v in col.items()}
        want[j] = want.get(j, 0) + b0
        if sq[j] != {r: v for r, v in want.items() if v}:
            return False
    return True


def invertible(mat: list[dict], n: int) -> bool:
    """Certified invertibility: a nonzero determinant modulo some prime.

    Columns are scaled by their denominators first (nonzero factors).  A
    nonzero residue proves the determinant is nonzero over Q; a matrix that
    is zero modulo every probe prime is reported singular.
    """
    if len(mat) != n:
        return False
    for p in _PRIMES:
        rows: list[dict] = [{} for _ in range(n)]
        usable = True
        for j, col in enumerate(mat):
            scale = 1
            for v in col.values():
                scale = scale * v.denominator // gcd(scale, v.denominator)
            if scale % p == 0:
                usable = False
                break
            for r, v in col.items():
                x = v.numerator * (scale // v.denominator) % p
                if x:
                    rows[r][j] = x
        if usable and _det_nonzero_mod(rows, n, p):
            return True
    return False


def _det_nonzero_mod(rows: list[dict], n: int, p: int) -> bool:
    """Sparse elimination modulo p; True when the matrix has full rank."""
    pending = {r: row for r, row in enumerate(rows)}
    for _ in range(n):
        if not pending:
            return False
        r = min(pending, key=lambda k: (len(pending[k]), k))
        row = pending.pop(r)
        if not row:
            return False
        c = min(row)
        inv = pow(row[c], p - 2, p)
        for k, other in pending.items():
            f = other.get(c)
            if f:
                f = f * inv % p
                for j, v in row.items():
                    x = (other.get(j, 0) - f * v) % p
                    if x:
                        other[j] = x
                    else:
                        other.pop(j, None)
    return True


def permutation_of(mat: list[dict], n: int) -> list[int] | None:
    """The row index of each column if mat is an n x n permutation matrix."""
    perm = []
    for col in mat:
        if len(col) != 1:
            return None
        (r, v), = col.items()
        if v != 1:
            return None
        perm.append(r)
    if len(perm) != n or sorted(perm) != list(range(n)):
        return None
    return perm


def check_module_map(source, target, matrix, subset) -> list[str]:
    """A map between modules: invertible, equivariant, modules well formed."""
    bad = []
    x = columns(matrix)
    a0, b0 = source.params.a0, source.params.b0
    for tag, mod in (("source", source), ("target", target)):
        for j in sorted(subset):
            if not quadratic_holds(columns(mod.gen_action[j]), a0, b0):
                bad.append(f"{tag} generator s{j + 1} breaks the quadratic relation")
    for j in sorted(subset):
        if matmul(x, columns(source.gen_action[j])) != matmul(columns(target.gen_action[j]), x):
            bad.append(f"map does not intertwine s{j + 1}")
    if not invertible(x, target.dim):
        bad.append("map is not invertible")
    return bad


# -- report-level checks --------------------------------------------------------


def check_report(text: str, want: list[str]) -> list[str]:
    """The serialized report parses, passes, every check in it is ok, and it
    holds exactly the checks `want` names (in any order)."""
    obj = json.loads(text)
    bad = [f"check failed: {c['name']}" for c in obj["checks"] if not c["ok"]]
    names = [c["name"] for c in obj["checks"]]
    if sorted(names) != sorted(want):
        missing = sorted(set(want) - set(names))
        extra = sorted(set(names) - set(want))
        bad.append(f"report checks differ from the method's: missing {missing}, "
                   f"unexpected {extra}")
    if obj["passed"] is not True:
        bad.append("report is not marked passed")
    return bad


# The checks each verifier must report, worked out from what the method
# states it checks, so that a verifier that drops one is caught.

# the isomorphism search runs on sources up to this dimension ("auto")
ISO_MAX_DIM = 64


def mackey_check_names(J) -> list[str]:
    """Bookkeeping, validity, both inverses, and equivariance of both
    transfer maps for every generator of J."""
    gens = sorted(J)
    return ["lhs dimension equals coset index times dim M",
            "each block dimension equals its coset index times dim M",
            "block dimensions sum to the lhs dimension",
            "constructed modules satisfy the defining relations",
            "backward o forward is the identity",
            "forward o backward is the identity",
            *[f"backward map is equivariant for s{j + 1}" for j in gens],
            *[f"forward map is equivariant for s{j + 1}" for j in gens]]


def tensor_check_names(m: int, n: int, k: int) -> list[str]:
    """The generic decomposition over the (k, m+n-k) parabolic of S_{m+n},
    three checks per interleaving pattern t, and the isomorphism search."""
    J = [j for j in range(m + n - 1) if j != k - 1]
    names = ["generic: " + name for name in mackey_check_names(J)]
    names.append("interleaving patterns enumerate the double cosets")
    for t in range(m + 1):
        if 0 <= k - t <= n:
            names += [f"t={t}: one-line cross-section agrees with the group route",
                      f"t={t}: block dimension is C({k},{t})*C({m + n - k},{m - t})*dimM*dimN",
                      f"t={t}: independent block equals the generic block"]
    names.append("isomorphism search links the block sum to the restriction")
    return names


_THM44_PRODUCT_PARTS = ("part 1 (relabel of a product)", "part 2 (flip of a product)",
                        "part 3 (composite of a product)")
_THM44_RESTRICTION_PARTS = ("part 4 (relabel of a restriction)",
                            "part 5 (flip of a restriction)",
                            "part 6 (dual of a restriction)")


def thm44_check_names(m: int, n: int, dim_m: int, dim_n: int) -> list[str]:
    """All six parts: a transport map (equivariant, invertible) for each
    product part, an intertwining identity for each restriction part, and
    the isomorphism search on every part when the modules, of dimension
    C(m+n,m) dimM dimN, are small enough for it."""
    iso = comb(m + n, m) * dim_m * dim_n <= ISO_MAX_DIM
    names = []
    for part in _THM44_PRODUCT_PARTS:
        names += [f"{part}: transport map is equivariant",
                  f"{part}: transport map is invertible"]
        if iso:
            names.append(f"{part}: isomorphism search concurs")
    for part in _THM44_RESTRICTION_PARTS:
        names.append(f"{part}: identity map intertwines the two sides")
        if iso:
            names.append(f"{part}: isomorphism search concurs")
    return names


_THM48_PARTS = ("part 1 (dual-relabel of a product)", "part 2 (dual of a product)",
                "part 3 (dual-flip of a product)", "part 4 (dual-composite of a product)")


def thm48_check_names() -> list[str]:
    """The pairing checks, one per case rule A1-A4 and B1-B4, and for each of
    the four parts a map that is equivariant, invertible and confirmed by
    the isomorphism search (run with the cross-check forced on)."""
    names = ["pairing pairs each basis line with exactly one dual line",
             "pairing matrix is invertible",
             "dual-line involution is self-inverse",
             "alternate basis presentation matches the induced action",
             "pairing intertwines the action with its partner generator"]
    names += [f"case rule {br} reproduces its pairing blocks"
              for br in ("A1", "A2", "A3", "A4", "B1", "B2", "B3", "B4")]
    for part in _THM48_PARTS:
        names += [f"{part}: map is equivariant", f"{part}: map is invertible",
                  f"{part}: isomorphism search concurs"]
    return names


def check_group_order(system, name: str) -> list[str]:
    want = prod(degrees(name))
    return [] if system.size == want else [f"|{name}| = {system.size}, degrees give {want}"]


def check_mackey(inst, fwd, bwd) -> list[str]:
    """Dimensions, transfer maps and module relations of one decomposition."""
    sys, M = inst.system, inst.M
    bad = []
    order = parabolic_size(sys, sys.full_subset)
    if inst.lhs.dim != order // parabolic_size(sys, inst.I) * M.dim:
        bad.append("dim lhs differs from [W:W_I] * dim M")
    size_J = parabolic_size(sys, inst.J)
    total = 0
    for block in inst.blocks:
        if block.module.dim != size_J // parabolic_size(sys, block.cross) * M.dim:
            bad.append(f"block {block.tau} has the wrong dimension")
        total += block.module.dim
    if total != inst.lhs.dim:
        bad.append("block dimensions do not sum to dim lhs")
    n = inst.lhs.dim
    perm = permutation_of(columns(fwd.matrix), n)
    back = permutation_of(columns(bwd.matrix), n)
    if perm is None:
        bad.append("forward transfer map is not a permutation matrix")
    elif back is None or any(back[perm[c]] != c for c in range(n)):
        bad.append("backward transfer map does not invert the forward map")
    else:
        # a permutation intertwines exactly when it relabels every entry
        for j in sorted(inst.J):
            lhs_j, rhs_j = columns(inst.lhs.gen_action[j]), columns(inst.rhs.gen_action[j])
            for c, col in enumerate(lhs_j):
                if {perm[r]: v for r, v in col.items()} != rhs_j[perm[c]]:
                    bad.append(f"forward map does not intertwine s{j + 1}")
                    break
    a0, b0 = M.params.a0, M.params.b0
    for tag, mod in (("lhs", inst.lhs), ("rhs", inst.rhs)):
        for j in sorted(mod.subset):
            if not quadratic_holds(columns(mod.gen_action[j]), a0, b0):
                bad.append(f"{tag} generator s{j + 1} breaks the quadratic relation")
    return bad


def check_tensor_dims(text: str, m: int, n: int, k: int, dim_m: int, dim_n: int) -> list[str]:
    """Two-factor dimension formulas against the serialized instance."""
    inst = json.loads(text)["instance"]
    bad = []
    if inst["dim_lhs"] != comb(m + n, m) * dim_m * dim_n:
        bad.append("dim lhs differs from C(m+n,m) * dimM * dimN")
    want = sorted(comb(k, t) * comb(m + n - k, m - t) * dim_m * dim_n
                  for t in range(m + 1) if 0 <= k - t <= n)
    if sorted(b["dim"] for b in inst["blocks"]) != want:
        bad.append("block dimensions differ from C(k,t)*C(m+n-k,m-t)*dimM*dimN")
    return bad
