"""Exact lengths on the determinantal ring from a Frobenius transfer matrix.

The 2x2 minors of [[u, v, w], [x, y, z]] cut out the Segre ring
k[a_i b_j] (i <= 2, j <= 3). Its monomials are the pairs (x in N^2,
y in N^3) with |x| = |y|, and the rank-one class M_k is spanned by the
pairs with |x| = |y| + k. Writing x = a + p x', y = b + p y' with residues
a, b in [0, p), Frobenius pushes M_k to a sum of classes,

    F_* M_k = (+) M_{(k + |b| - |a|) / p}  over |a| - |b| = k (mod p),

and the classes -2..3 are closed under it. So with phi_k(q) the length of
M_k / m^[q] M_k, phi_k(p q) = sum_j A[k][j] phi_j(q), and phi_k(1) is the
number of generators of M_k. One small integer matrix fixes every length
of every class, with no Groebner basis: ground truth for the engine at any
n. The corpus modules are M_0 (the ring), (u, x) = b_1 M_1 (omega's
module) and (u, v, w) = a_1 M_{-1} (additive_error's submodule).
"""

import json
from collections import Counter
from itertools import product
from math import comb

import pytest

import hilbertkunz as hk
from conftest import CORPUS

CLASSES = range(-2, 4)
MINORS = ["u*y - v*x", "u*z - w*x", "v*z - w*y"]


def segre_lengths(p: int, n: int) -> dict[int, int]:
    """phi_k(p^n) for every class k in -2..3."""
    residue_sums = [
        Counter(map(sum, product(range(p), repeat=r))) for r in (2, 3)
    ]
    matrix = {k: Counter() for k in CLASSES}
    for k in CLASSES:
        for (sa, ca), (sb, cb) in product(*(c.items() for c in residue_sums)):
            j, r = divmod(k + sb - sa, p)
            if r == 0:
                matrix[k][j] += ca * cb
    # phi_j(1): j + 1 generators x^a (|a| = j) for j >= 0, C(2 - j, 2) y^b otherwise
    phi = {k: k + 1 if k >= 0 else comb(2 - k, 2) for k in CLASSES}
    for _ in range(n):
        phi = {k: sum(c * phi[j] for j, c in matrix[k].items()) for k in CLASSES}
    return phi


def _fixture(name: str) -> dict:
    return json.loads((CORPUS / name).read_text())


def test_matrix_gives_the_determinantal_lengths():
    """Class 0 at p=2 through n=6, where the engine gives 27,196,912."""
    assert [segre_lengths(2, n)[0] for n in range(7)] == [
        1, 23, 397, 6518, 105436, 1695608, 27196912,
    ]


def test_corpus_fixture_lengths_equal_the_matrix():
    """Every length the corpus records on the determinantal ring: the
    ring itself (class 0), omega's module (class 1) and additive_error's
    submodule (class -1) beside its ambient ring."""
    for s in _fixture("determinantal.fit.json")["samples"]:
        assert int(s["length"]) == segre_lengths(2, s["n"])[0]
    for s in _fixture("omega.tau.json")["samples"]:
        assert int(s["length"]) == segre_lengths(2, s["n"])[1]
    rows = _fixture("additive_error.additive-error.json")["analysis"]["rows"]
    assert rows
    for row in rows:
        phi = segre_lengths(2, row["n"])
        assert int(row["length_sub"]) == phi[-1]
        assert int(row["length_ambient"]) == phi[0]


@pytest.mark.parametrize(
    "p, generators, k, n_max",
    [
        (2, [["u"], ["x"]], 1, 3),
        (2, [["u"], ["v"], ["w"]], -1, 3),
        (3, None, 0, 2),
    ],
    ids=["omega-module-p2", "additive-sub-p2", "ring-p3"],
)
def test_engine_equals_the_matrix(p, generators, k, n_max):
    """The engine on the signed minors, n = 0..n_max."""
    rs = hk.ring_spec("u v w x y z", p, MINORS)
    module = hk.free_module(rs, 1)
    if generators is not None:
        module = hk.present_submodule(module, generators)
    ideal = hk.maximal_ideal(rs)
    for n in range(n_max + 1):
        assert hk.length_mod_frobenius(module, ideal, n) == segre_lengths(p, n)[k]
