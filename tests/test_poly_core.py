import dataclasses
import itertools
import math
import sys
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

from extremal_poly import oracles
from extremal_poly import poly_core
from extremal_poly.binomial_family import lattice_roots
from extremal_poly.errors import DomainError, InputError
from extremal_poly.jacobi_family import (
    closed_form_disc,
    family_coeffs,
    family_roots,
)
from extremal_poly.oracles import (
    RESULTANT_MAX_DEGREE,
    TOL_ORACLE,
    descartes_real_root_bound,
    disc_resultant_oracles,
    jacobi_coeffs,
    quartic_disc,
    quintic_disc,
)
from extremal_poly.poly_core import (
    _PAIR_BLOCK,
    _SPLIT_CONSTANTS,
    _SPLIT_MIN_PAIRS,
    _split_sums,
    LogDiscriminant,
    RealRootedPoly,
    log_disc_from_roots,
    log_modulus_at_ai,
    poly_from_roots,
    rel_log_diff,
)
from extremal_poly.solvers import solve_max_disc
from extremal_poly.verification import (
    _check_jacobi_vs_resultant,
    _check_multiplier_vs_resultant,
    _jacobi_cases,
    _multiplier_cases,
)


def test_poly_from_roots_basic():
    p = poly_from_roots([1.0, -1.0])
    assert p.degree == 2
    assert p.roots == (-1.0, 1.0)


def test_poly_from_roots_sorts():
    p = poly_from_roots([3.0, -2.0, 0.5])
    assert list(p.roots) == sorted(p.roots)


def test_poly_from_roots_rejects_nonfinite():
    with pytest.raises(InputError):
        poly_from_roots([0.0, math.inf])
    with pytest.raises(InputError):
        poly_from_roots([0.0, math.nan])


def test_poly_from_roots_needs_degree_two():
    with pytest.raises(DomainError):
        poly_from_roots([1.0])


def test_roots_are_the_only_field():
    p = poly_from_roots([2.0, -1.0, 0.5])
    assert [f.name for f in dataclasses.fields(RealRootedPoly)] == ["roots"]
    assert p.degree == 3
    assert not hasattr(p, "coeffs")


def test_equality_and_hash_follow_the_roots():
    p = poly_from_roots([1.0, -1.0])
    q = poly_from_roots([-1.0, 1.0])
    assert p == q and hash(p) == hash(q)
    assert p != poly_from_roots([-1.0, 2.0])
    assert len({p, q, poly_from_roots([0.0, 1.0])}) == 2


def test_modulus_at_ai():
    p = poly_from_roots([-1.0, 1.0])
    # |f(i)| = |-1 - 1| = 2
    assert abs(log_modulus_at_ai(p.roots, 1.0) - math.log(2.0)) <= math.log1p(1e-14)


def test_modulus_log_route_matches_direct():
    rng = np.random.default_rng(13)
    for _ in range(40):
        roots = rng.uniform(-3, 3, size=5)
        a = float(rng.uniform(0.1, 4.0))
        p = poly_from_roots(roots)
        # the direct product of the factor moduli |ai - x_k|
        direct = math.prod(abs(complex(-r, a)) for r in p.roots)
        assert math.log(direct) == pytest.approx(
            log_modulus_at_ai(p.roots, a), abs=1e-12
        )


@pytest.mark.parametrize(
    "roots, a",
    [
        ([-1.7e308, 1.7e308], 1.7e308),
        ([-1e308, 0.0, 1e308], 1.7976931348623157e308),
        ([-1.7e308, 1.5e-323, 1.7e308], 1.7e308),  # a root that halves inexactly
        ([-1e308, 5e-324, 1e308], 1.7976931348623157e308),  # a subnormal root beside them
    ],
)
def test_modulus_past_float_range_is_finite(roots, a):
    # some |x + ai| is past float range, but its log is not
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = log_modulus_at_ai(roots, a)
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        want = mp.fsum(mp.log(mp.hypot(a, x)) for x in roots)
        assert abs(got - want) <= 1e-15 * abs(want)


def test_log_disc_known_values():
    # disc(x^2 - 1) = 4, disc(x^3 - 3x) = 108
    ld = log_disc_from_roots(poly_from_roots([-1.0, 1.0]))
    assert ld.sign == 1
    assert ld.value == pytest.approx(4.0, rel=1e-14)
    ld3 = log_disc_from_roots(poly_from_roots([-math.sqrt(3), 0.0, math.sqrt(3)]))
    assert ld3.value == pytest.approx(108.0, rel=1e-13)



def test_value_below_float_range_loses_bits_then_is_zero():
    # the g_family answer at a = 0.381..., d = 58 has log disc -739.0039:
    # its value is a subnormal with about ten significant bits, which the
    # log of the value misses by 1.9e-3, while log_abs keeps every bit
    sol = solve_max_disc(0.3813584904693017, 58, 7.517036165918943e-08)
    ld = sol.achieved_disc
    assert sol.regime == "g_family" and ld.sign == 1
    assert ld.log_abs == pytest.approx(-739.0039, abs=1e-4)
    assert 0.0 < ld.value < sys.float_info.min
    assert abs(math.log(ld.value) - ld.log_abs) > 1e-3
    assert LogDiscriminant(1, -708.0).value >= sys.float_info.min
    for sign in (1, -1):
        assert LogDiscriminant(sign, -745.0).value == sign * 5e-324
        assert LogDiscriminant(sign, -745.2).value == 0.0


def test_log_disc_coincident_roots():
    ld = log_disc_from_roots(poly_from_roots([1.0, 1.0]))
    assert ld.sign == 0


def _list_log_disc(rs) -> LogDiscriminant:
    # reference: every pairwise term materialised, then summed
    terms = []
    for j in range(len(rs)):
        for k in range(j + 1, len(rs)):
            diff = rs[k] - rs[j]
            if diff == 0.0:
                return LogDiscriminant.zero()
            terms.append(2.0 * math.log(abs(diff)))
    return LogDiscriminant(1, math.fsum(terms))


def test_log_disc_equals_list_reference_bitwise():
    rng = np.random.default_rng(15)
    for trial in range(60):
        roots = list(rng.uniform(-3, 3, size=int(rng.integers(2, 60))))
        if trial % 3 == 0:
            roots[0] = roots[-1]
        if trial % 5 == 0:
            roots = [round(r, 1) for r in roots]
        p = poly_from_roots(roots)
        assert log_disc_from_roots(p) == _list_log_disc(p.roots)


@pytest.mark.parametrize("d", [2, 3, 127, 128, 129, 300, 1000])
def test_log_disc_across_row_blocks(d):
    # rows split across blocks from d = 182 on. np.log may differ from
    # math.log by an ulp per term; the exact sum adds those differences
    # and rounds once
    rng = np.random.default_rng(d)
    p = poly_from_roots(rng.uniform(-3.0, 3.0, size=d))
    want = _list_log_disc(p.roots)
    got = log_disc_from_roots(p)
    rs = p.roots
    size = math.fsum(
        abs(2.0 * math.log(rs[k] - rs[j]))
        for j in range(d)
        for k in range(j + 1, d)
    )
    assert got.sign == want.sign == 1
    assert abs(got.log_abs - want.log_abs) <= 4.0 * sys.float_info.epsilon * size


def test_log_disc_duplicate_pair_in_last_block():
    roots = list(np.random.default_rng(301).uniform(-3.0, 3.0, size=300))
    roots[roots.index(max(roots))] = sorted(roots)[-2]
    assert log_disc_from_roots(poly_from_roots(roots)) == LogDiscriminant.zero()


def _mirror_past_float_range(d):
    # a mirror set scaled so that its widest gaps, not its roots, overflow
    sigma = 1e308 * np.random.default_rng(d).uniform(0.1, 1.0, d // 2)
    return np.concatenate([-sigma, [0.0] * (d % 2), sigma]).tolist()


@pytest.mark.parametrize(
    "roots",
    [
        [-1e308, 1e308],
        [-1e308, 0.0, 1e308],
        # subnormal roots beside overflowing gaps: halving 5e-324 or 1.5e-323
        # rounds, so no gap but the overflowing ones may be halved
        [-1.7e308, 0.0, 5e-324, 1.7e308],
        [-1.7e308, 1e-323, 1.5e-323, 1.7e308],
        [-1.7e308, -5e-324, 0.0, 5e-324, 1.7e308],
        [-sys.float_info.max, 1.0, sys.float_info.max],
    ]
    # sizes that, but for the overflow, take the list, one block and mirror runs
    + [_mirror_past_float_range(d) for d in (3, 30, 200)],
)
def test_log_disc_overflowing_gap_is_finite(roots):
    # the largest gap is past float range, as x_k - x_j in Python floats,
    # but its log is not: only the gaps past float range are halved,
    # exactly, each with a log 2 back
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ld = log_disc_from_roots(poly_from_roots(roots))
    roots = sorted(roots)
    logs = []
    for x, y in itertools.combinations(roots, 2):
        if math.isinf(y - x):
            logs += [math.log(0.5 * y - 0.5 * x), math.log(2.0)]
        else:
            logs.append(math.log(y - x))
    assert ld.sign == 1
    assert abs(ld.log_abs - 2.0 * math.fsum(logs)) <= 1e-15 * abs(ld.log_abs)
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        exact = 2 * mp.fsum(mp.log(mp.mpf(y) - x) for x, y in itertools.combinations(roots, 2))
        assert abs(ld.log_abs - exact) <= 1e-15 * abs(exact)


def _fsum_of_every_log(rs) -> LogDiscriminant:
    # reference: the kernel's row blocks, every np.log of a positive gap
    # as a Python float, one fsum over all of them; a gap past float
    # range is taken on the halved roots, with one log 2 more
    xs = np.array(sorted(rs))
    if np.any(xs[1:] == xs[:-1]):
        return LogDiscriminant.zero()
    rows = max(1, _PAIR_BLOCK // xs.size)
    logs = []
    for j in range(0, xs.size - 1, rows):
        with np.errstate(over="ignore"):
            gaps = xs[j + 1 :] - xs[j : j + rows, None]
        over = gaps == math.inf
        gaps[over] = (0.5 * xs[j + 1 :] - 0.5 * xs[j : j + rows, None])[over]
        logs += np.log(gaps[gaps > 0]).tolist() + [math.log(2.0)] * int(over.sum())
    return LogDiscriminant(1, 2.0 * math.fsum(logs))


# smallest degree whose one block is summed by the split
_SPLIT_D = next(d for d in itertools.count(2) if d * (d - 1) // 2 >= _SPLIT_MIN_PAIRS)
# smallest degree summed in row blocks
_ROW_D = next(d for d in itertools.count(2) if d * (d - 1) // 2 > _PAIR_BLOCK)
# smallest row-block degrees whose last block is full, one row, or one
# row short: d - 1 is a multiple of the row count, or one off it
_LAST_BLOCK_D = [
    next(d for d in itertools.count(_ROW_D) if (d - 1 - off) % (_PAIR_BLOCK // d) == 0)
    for off in (0, 1, -1)
]


@pytest.mark.parametrize(
    "d",
    sorted(
        {2, 3, 8, _SPLIT_D - 1, _SPLIT_D, _SPLIT_D + 1, 32, 33, 34, 127, 128, 129}
        | {_ROW_D - 1, _ROW_D}
        | set(_LAST_BLOCK_D)
        | {300, 1000, 1024, 1025, 3000}
    ),
)
def test_log_disc_binade_sums_match_fsum_of_every_log(d):
    p = poly_from_roots(np.random.default_rng(d).uniform(-3.0, 3.0, size=d))
    assert log_disc_from_roots(p) == _fsum_of_every_log(p.roots)


def _spread(rng, d):
    # magnitudes from 1e-300 to 1e300, either sign
    return rng.choice([-1.0, 1.0], d) * 10.0 ** rng.uniform(-300.0, 300.0, d)


def _clustered(rng, d):
    # integers moved by about 1e-9, so gaps near 1 put logs in many binades
    return np.arange(d) + rng.uniform(-1e-9, 1e-9, d)


def _unit_gaps(rng, d):
    # gaps of exactly 1, whose log is 0, beside gaps of 2, 3, ...
    return np.arange(d, dtype=float) - d // 2


def _past_float_range(rng, d):
    # gaps past float range: the widest is inf, but its log is not
    return 1e308 * rng.uniform(-1.0, 1.0, d)


@pytest.mark.parametrize("roots", [_spread, _clustered, _unit_gaps, _past_float_range])
@pytest.mark.parametrize("d", [40, 300])  # one block, and row blocks
def test_log_disc_binade_sums_match_fsum_on_extreme_gaps(roots, d):
    rng = np.random.default_rng(d)
    for _ in range(5):
        p = poly_from_roots(roots(rng, d))
        assert log_disc_from_roots(p) == _fsum_of_every_log(p.roots)


def _exact_sum(xs) -> Fraction:
    return sum(map(Fraction, xs), Fraction(0))


@pytest.mark.parametrize(
    "terms",
    [
        [1.0, 2.0**-53],  # half-way, ties to the even 1.0
        [1.0 + 2.0**-52, 2.0**-53],  # half-way, ties up to 1 + 2^-51
        [1.0, 2.0**-53, 2.0**-105],  # just past half-way
        [1.0, -(2.0**-54)],  # half-way below 1
        [-1.0, -(2.0**-53), 0.0],
        [2.0**-52, 1.0, -(2.0**-53), 3.0, -3.0],
        [0.1] * 1000 + [2.0**-60, -744.4, 709.8],
        [0.0, 0.0],
    ],
)
def test_binade_sums_round_like_fsum(terms):
    # the cases of the per-binade sums that _split_sums replaced
    g = np.array(terms)
    parts = _split_sums(g.copy(), np.empty_like(g), _SPLIT_CONSTANTS)
    assert len(parts) == 3
    assert math.fsum(parts) == math.fsum(terms)
    assert _exact_sum(parts) == _exact_sum(terms)


_TINY, _HUGE = 5e-324, sys.float_info.max
# odd integers below 2^10 whose sum is odd: a split level too coarse for
# the values below leaves sums that need one bit more than a float holds
_ODD = 2.0 * np.random.default_rng(3).integers(0, 2**9, _PAIR_BLOCK - 1) + 1.0


@pytest.mark.parametrize(
    "terms",
    [
        np.log([1.0 + 2.0**-52, 1.0 - 2.0**-53]),  # gaps 1 ± 1 ulp
        np.log([_HUGE, 1.0 / _HUGE, _TINY]),  # ±709.78 and -744.44
        [745.0] * _PAIR_BLOCK,  # the largest block, every entry past any log
        np.log(np.random.default_rng(1).uniform(0.0, 2.0, _PAIR_BLOCK)),
        np.log(np.random.default_rng(2).uniform(0.5, 1.5, _SPLIT_MIN_PAIRS)),
        [745.0, -745.0, 2.0**-54, 709.0, 1.0 - 2.0**-53],
        # each case needs the level it names to be no coarser or finer
        745.0 - _ODD * 2.0**-30,  # first level no coarser
        2.0**-26 - _ODD * 2.0**-66,  # first level no finer
        2.0**-29 - _ODD * 2.0**-69,  # second level no finer
        2.0**-53 + 2.0**-65 - _ODD * 2.0**-105,  # second level no coarser
        2.0**-53 + 2.0**-67 - _ODD * 2.0**-105,  # remainders at their bound
    ],
)
def test_split_sums_exact_at_the_edges(terms):
    g = np.array(terms)
    parts = _split_sums(g.copy(), np.empty_like(g), _SPLIT_CONSTANTS)
    assert _exact_sum(parts) == _exact_sum(g.tolist())


def _mirror(rng, d):
    # random pairs ±sigma, and 0 in the middle for odd d
    sigma = rng.uniform(0.01, 3.0, d // 2)
    return np.concatenate([-sigma, [0.0] * (d % 2), sigma])


def _row_block_calls(monkeypatch) -> list:
    # (op, weight, split levels) of each _row_block_sums call
    calls = []
    real = poly_core._row_block_sums

    def spy(xs, op, weight, constants):
        calls.append((op, weight, len(constants)))
        return real(xs, op, weight, constants)

    monkeypatch.setattr(poly_core, "_row_block_sums", spy)
    return calls


@pytest.mark.parametrize("d", [_ROW_D, _ROW_D + 1, 400, 1001])
def test_log_disc_of_mirror_sets_matches_fsum(monkeypatch, d):
    # multiplier-family members and mirrored random sets take each
    # distinct gap once; binomial members and random sets every gap
    rng = np.random.default_rng(d)
    mirrors = [
        family_roots(1.0, d, lam)
        for lam in (2.0 * d - 2.0 + 1e-3, 2.5 * d, 20.0 * d)
    ] + [_mirror(rng, d), 1e-3 * _mirror(rng, d)]
    others = [lattice_roots(1.0, d, log_p) for log_p in (-1e-3, -1.0, -30.0)]
    others.append(rng.uniform(-3.0, 3.0, d))
    calls = _row_block_calls(monkeypatch)
    for i, roots in enumerate(mirrors + others):
        calls.clear()
        p = poly_from_roots(roots)
        assert log_disc_from_roots(p) == _fsum_of_every_log(p.roots)
        if i < len(mirrors):
            assert calls == [(np.subtract, 2.0, 1), (np.add, 2.0, 1)]
        else:
            assert calls == [(np.subtract, 1.0, 1)]


@pytest.mark.parametrize("d", [_ROW_D, 1000])
def test_log_disc_near_mirror_set_takes_every_gap(monkeypatch, d):
    calls = _row_block_calls(monkeypatch)
    roots = family_roots(1.0, d, 2.5 * d)
    roots[-1] = math.nextafter(roots[-1], math.inf)
    p = poly_from_roots(roots)
    assert log_disc_from_roots(p) == _fsum_of_every_log(p.roots)
    assert calls == [(np.subtract, 1.0, 1)]


@pytest.mark.parametrize(
    "d, mirror, scale",
    [pytest.param(300, False, 1.0, id="False"), pytest.param(301, True, 1.0, id="True")]
    + [
        pytest.param(d, mirror, 1.0, id="one-block-%d-%s" % (d, mirror))
        for d in (_SPLIT_D, 100, _ROW_D - 1)
        for mirror in (False, True)
    ]
    + [
        pytest.param(d, mirror, 0.6e308, id="past-float-range-%d-%s" % (d, mirror))
        for d, mirror in ((_SPLIT_D, False), (300, False), (301, True))
    ],
)
def test_log_disc_failed_certificate_falls_back_to_the_exact_split(
    monkeypatch, d, mirror, scale
):
    # an error bound of 1 per gap leaves no certified rounding, in one
    # block as in row blocks; past float range the exact split takes the
    # same halved gaps and log 2s as the certificate does
    monkeypatch.setattr(poly_core, "_REMAINDER_ERROR", 1.0)
    levels = []
    real = poly_core._split_sums

    def spy(g, h, constants):
        levels.append(len(constants))
        return real(g, h, constants)

    monkeypatch.setattr(poly_core, "_split_sums", spy)
    rng = np.random.default_rng(7)
    p = poly_from_roots(scale * (_mirror(rng, d) if mirror else rng.uniform(-3.0, 3.0, d)))
    assert math.isinf(p.roots[-1] - p.roots[0]) == (scale > 1.0)
    assert log_disc_from_roots(p) == _fsum_of_every_log(p.roots)
    blocks = len(levels) // 2
    assert blocks >= 1 and levels == [1] * blocks + [2] * blocks


@pytest.mark.parametrize("d", [9, 12, 30, 64, 65, 100])
def test_log_disc_column_blocks_match_fsum(monkeypatch, d):
    # with blocks of 8 pairs a row block is one row until the rows left
    # have at most 4 gaps, and rows of more than 8 gaps are cut into
    # column blocks: the path of d > 2^14
    monkeypatch.setattr(poly_core, "_PAIR_BLOCK", 8)
    rng = np.random.default_rng(d)
    for roots in (
        rng.uniform(-3.0, 3.0, d),
        _spread(rng, d),
        _clustered(rng, d),
        _mirror(rng, d),
    ):
        p = poly_from_roots(roots)
        assert log_disc_from_roots(p) == _fsum_of_every_log(p.roots)


def test_log_disc_bounded_memory_at_degree_3000():
    p = poly_from_roots(np.random.default_rng(3000).uniform(-3.0, 3.0, size=3000))
    tracemalloc.start()
    try:
        log_disc_from_roots(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4e6


def test_resultant_oracle_agrees_with_root_product():
    rng = np.random.default_rng(14)
    for _ in range(60):
        roots = rng.uniform(-3, 3, size=int(rng.integers(2, 8)))
        p = poly_from_roots(roots)
        want = log_disc_from_roots(p)
        got = disc_resultant_oracles([np.poly(p.roots)[::-1]])[0]
        assert got.sign == want.sign
        assert rel_log_diff(got.log_abs, want.log_abs) < 1e-8


def test_resultant_oracle_negative_disc():
    # x^3 + x has disc -4: complex root pair flips the sign
    got = disc_resultant_oracles([[0.0, 1.0, 0.0, 1.0]])[0]
    assert got.sign == -1
    assert got.value == pytest.approx(-4.0, rel=1e-12)


def test_resultant_derivative_row_overflow_is_rescaled():
    # 2·1e308 overflows in f'; disc(1e308 x^2 + 1) = -4e308, as the mirror
    # row (no overflow) reads it
    want = math.log(4.0) + math.log(1e308)
    for coeffs in ([1.0, 0.0, 1e308], [1e308, 0.0, 1.0], [-1.0, 0.0, -1e308]):
        got = disc_resultant_oracles([coeffs])[0]
        assert got.sign == -1
        assert rel_log_diff(got.log_abs, want) <= 1e-15


def test_resultant_oracle_rejects_bad_rows():
    with pytest.raises(DomainError):
        disc_resultant_oracles([[1.0, 1.0]])
    with pytest.raises(DomainError):
        disc_resultant_oracles([[1.0, 1.0, 0.0]])
    with pytest.raises(InputError):
        disc_resultant_oracles([[math.nan, 0.0, 1.0]])
    with pytest.raises(InputError):
        disc_resultant_oracles([[1.0, 0.0, 1.0], [math.inf, 0.0, 1.0]])


# relative log error of the oracle on family_coeffs at a = 1, multiplier
# 2.5d, against closed_form_disc, where it now refuses the row
_PAST_MAX_DEGREE = {16: 5.1e-13, 20: 3.4e-11, 24: 1.1e-9, 30: 4.9e-8, 40: 2.5e-3, 80: 0.91}


@pytest.mark.parametrize("d", sorted(_PAST_MAX_DEGREE))
def test_resultant_oracle_refuses_past_max_degree(monkeypatch, d):
    row = family_coeffs(1.0, d, 2.5 * d)
    with pytest.raises(DomainError, match="outside 2..%d" % RESULTANT_MAX_DEGREE):
        disc_resultant_oracles([[1.0, 0.0, -1.0], row])
    # with the bound lifted, the error it would report grows as tabled
    monkeypatch.setattr(oracles, "RESULTANT_MAX_DEGREE", d)
    got, want = disc_resultant_oracles([row])[0], closed_form_disc(1.0, d, 2.5 * d)
    assert got.sign == want.sign
    err = rel_log_diff(got.log_abs, want.log_abs)
    assert _PAST_MAX_DEGREE[d] / 10 <= err <= 10 * _PAST_MAX_DEGREE[d]


def test_resultant_oracle_within_tolerance_to_max_degree():
    # the grid the bound was chosen on: heights 0.01 to 100, multipliers
    # from 2d - 2 + 1e-3 to 20d; the worst is 4.5e-10 at d = 12, and a = 0.1,
    # d = 13 is already 1.4e-8
    cases = [
        (a, d, lam)
        for d in range(2, RESULTANT_MAX_DEGREE + 1)
        for a in np.geomspace(0.01, 100.0, 9).tolist()
        for lam in [2 * d - 2 + 1e-3, 2 * d - 1.9, 2 * d - 1.0, 2.5 * d, 20.0 * d]
    ]
    got = disc_resultant_oracles([family_coeffs(*case) for case in cases])
    for case, oracle in zip(cases, got):
        want = closed_form_disc(*case)
        assert oracle.sign == want.sign
        assert rel_log_diff(oracle.log_abs, want.log_abs) <= TOL_ORACLE


def test_resultant_batch_equals_single_bitwise():
    rng = np.random.default_rng(1616)
    rows = [rng.uniform(-3.0, 3.0, d + 1).tolist() for d in range(2, 9) for _ in range(6)]
    for row in rows[::4]:
        row[-1] = -abs(row[-1])
    singular = [[1.0, -2.0, 1.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0, 1.0]]
    rows += singular + [[1.0, 0.0, 1e308]]
    order = rng.permutation(len(rows))
    batch = [rows[i] for i in order]
    got = disc_resultant_oracles(batch)
    assert len(got) == len(batch)
    for row, disc in zip(batch, got):
        single = disc_resultant_oracles([row])[0]
        assert (disc.sign, disc.log_abs) == (single.sign, single.log_abs)
        assert (disc.sign == 0) == (row in singular)


def _mp_log_disc(mp, row):
    # (sign, log|disc|) from the Sylvester determinant of f and f' in mpmath
    d = len(row) - 1
    f = [mp.mpf(c) for c in reversed(row)]
    g = [(d - j) * f[j] for j in range(d)]
    syl = mp.zeros(2 * d - 1)
    for i in range(d - 1):
        for j, c in enumerate(f):
            syl[i, i + j] = c
    for i in range(d):
        for j, c in enumerate(g):
            syl[d - 1 + i, i + j] = c
    disc = (-1) ** (d * (d - 1) // 2) * mp.det(syl) / f[0]
    return mp.sign(disc), float(mp.log(abs(disc)))


def test_resultant_oracle_matches_mpmath_determinant():
    # every tenth of the 470 rows verify --deep checks, against a 60-digit
    # determinant; the worst measured is 3.8e-15 here and 4.6e-13 over all 470
    mp = pytest.importorskip("mpmath")
    rows = [family_coeffs(*case) for case in _multiplier_cases(True)]
    rows += [jacobi_coeffs(*case) for case in _jacobi_cases()]
    assert len(rows) == 470
    rows = rows[::10]
    with mp.workdps(60):
        for row, got in zip(rows, disc_resultant_oracles(rows)):
            sign, log_abs = _mp_log_disc(mp, row)
            assert got.sign == sign
            assert rel_log_diff(got.log_abs, log_abs) <= 1e-12


def test_verify_resultant_lines_are_pinned():
    for check, detail in (
        (_check_multiplier_vs_resultant(True), "420 cases, worst rel log err <1e-12"),
        (_check_multiplier_vs_resultant(False), "300 cases, worst rel log err <1e-12"),
        (_check_jacobi_vs_resultant(), "50 cases, worst rel log err 1.111e-12"),
    ):
        assert check.passed
        assert check.detail == detail


def test_log_discriminant_value_roundtrip():
    ld = LogDiscriminant(1, math.log(12.5))
    assert ld.value == pytest.approx(12.5, rel=1e-15)
    assert LogDiscriminant(-1, math.log(3.0)).value == pytest.approx(-3.0, rel=1e-15)
    assert LogDiscriminant.zero().sign == 0
    assert LogDiscriminant.zero().value == 0.0


def test_log_discriminant_huge_value_is_inf():
    ld = LogDiscriminant(sign=1, log_abs=800.0)
    assert ld.value == math.inf


def test_rel_log_diff_floor():
    # small magnitudes compare absolutely, not relatively
    assert rel_log_diff(1e-13, 0.0) == pytest.approx(1e-13)
    assert rel_log_diff(200.0, 100.0) == pytest.approx(0.5)
    assert rel_log_diff(-5.0, -5.0) == 0.0


@pytest.mark.parametrize(
    "c2,c0,roots",
    [
        (-1.0, 0.09, None),
        (-6.0, 1.0, None),
        (-2.0, 0.5, None),
    ],
)
def test_quartic_disc_vs_oracle(c2, c0, roots):
    got = quartic_disc(c2, c0)
    ref = disc_resultant_oracles([[c0, 0.0, c2, 0.0, 1.0]])[0]
    assert got == pytest.approx(ref.sign * math.exp(ref.log_abs), rel=1e-10)


def test_quintic_disc_vs_oracle():
    for c2, c0 in [(-3.0, 1.0), (-5.0, 2.0), (-2.5, 0.7)]:
        got = quintic_disc(c2, c0)
        ref = disc_resultant_oracles([[0.0, c0, 0.0, c2, 0.0, 1.0]])[0]
        assert got == pytest.approx(ref.sign * math.exp(ref.log_abs), rel=1e-10)


@pytest.mark.parametrize(
    "coeffs,bound",
    [
        ([1.0, 0.0, 1.0], 0),  # x^2 + 1
        ([-1.0, 0.0, 1.0], 2),  # x^2 - 1
        ([0.0, -3.0, 0.0, 1.0], 3),  # x^3 - 3x
        ([-3.0, 0.0, 6.0, 0.0, 1.0], 2),  # x^4 + 6x^2 - 3
    ],
)
def test_descartes_bound(coeffs, bound):
    assert descartes_real_root_bound(coeffs) == bound


def test_descartes_rejects_zero_poly():
    with pytest.raises(DomainError):
        descartes_real_root_bound([0.0, 0.0])
