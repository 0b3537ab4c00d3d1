"""Two trials as the two lanes of one Gröbner basis run.

`multidegrees` saturates the two trials of a slice in one `buchberger`
run whose coefficients hold both (`_kernel_py.lane_terms`).  The run keeps
the pairs, the heap and the divisor index of one run, so it may take a
step only where both lanes agree on the leads: a remainder whose leading
coefficient is 0 in one lane ends it with `LaneDivergence`, and the slice
runs each trial alone.  These tests pin that a run that ends gives each
lane's own basis, that lanes with different leads never give a basis,
that no lane field carries into the next, and that a two-lane basis
gives leads and nothing else.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from toricpolar import _kernel_py as kernel
from toricpolar import groebner, maps
from toricpolar.constructions import cremona_poly
from toricpolar.errors import (LaneDivergence, SpecializationError,
                               ToricPolarError)
from toricpolar.field import DEFAULT_PRIME, PrimeField
from toricpolar.groebner import Ideal, buchberger, saturate
from toricpolar.maps import (RandomizationConfig, derive_seed, multidegrees,
                             toric_polar_map)
from toricpolar.poly import GREVLEX, Polynomial, block_order

PRIMES = [101, DEFAULT_PRIME]


def monomials(arity, degree):
    """The exponents of degree `degree` in `arity` variables."""
    if arity == 1:
        return [(degree,)]
    return [(a, *rest) for a in range(degree + 1)
            for rest in monomials(arity - 1, degree - a)]


@st.composite
def slice_shapes(draw):
    """The supports of a slice: j forms in j + 1 variables and a saturant,
    all of one degree, as `maps` restricts them."""
    arity = draw(st.integers(2, 3))
    degree = draw(st.integers(1, 4))
    support = st.lists(st.sampled_from(monomials(arity, degree)),
                       min_size=2, max_size=5, unique=True)
    return [draw(support) for _ in range(arity)]


def specialize(field, shape, data):
    """The ideal and the saturant of one draw of nonzero coefficients on
    `shape`."""
    coefficient = st.integers(1, field.p - 1)
    polys = [Polynomial(field, len(s[0]), {e: data.draw(coefficient)
                                           for e in s}) for s in shape]
    return Ideal(polys[:-1], field=field, arity=polys[0].arity), polys[-1]


def rabinowitsch(I, g):
    """The input of `saturate`: I and 1 - t*g, t the first variable."""
    m = I.arity
    t = Polynomial.variable(I.field, m + 1, 0)
    one = Polynomial.constant(I.field, m + 1, 1)
    return Ideal([h.extend_arity(m + 1, 0) for h in I.generators]
                 + [one - t * g.extend_arity(m + 1, 0)])


SETTINGS = settings(max_examples=100, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow,
                                           HealthCheck.filter_too_much])


@pytest.mark.parametrize("p", PRIMES)
@SETTINGS
@given(shape=slice_shapes(), data=st.data())
def test_two_lanes_end_at_each_lanes_own_basis(p, shape, data):
    """Two specializations of one slice shape under `block_order(1)`: a
    two-lane run that ends has the leads of each one-lane run, t-free
    leads included, and each lane's entries are those of its own run,
    coefficient by coefficient."""
    field = PrimeField(p)
    (I0, g0), (I1, g1) = (specialize(field, shape, data) for _ in "ab")
    R0, R1 = rabinowitsch(I0, g0), rabinowitsch(I1, g1)
    order = block_order(1)
    alone = [buchberger(R, order) for R in (R0, R1)]
    try:
        G = buchberger((R0, R1), order)
    except LaneDivergence:
        return
    assert G.leading_exponents() == alone[0].leading_exponents()
    assert G.leading_exponents() == alone[1].leading_exponents()
    assert ([lane.entries for lane in G._minimal.split_lanes()]
            == [A._minimal.entries for A in alone])
    S = saturate((I0, I1), (g0, g1))
    assert S.leading_exponents() == saturate(I0, g0).leading_exponents()
    assert S.leading_exponents() == saturate(I1, g1).leading_exponents()
    assert S.leading_exponents() == tuple(
        e[1:] for e in G.leading_exponents() if not e[0])


def test_generic_lanes_do_not_part():
    """At the default prime the two trials of each slice of Cremona n = 4
    share every lead, so no slice runs a trial alone."""
    runs, alone = [], []
    real = groebner.buchberger

    def recording(I, order=GREVLEX):
        G = real(I, order)
        runs.append(G._minimal.lane)
        return G

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(groebner, "buchberger", recording)
        mp.setattr(maps, "_slice_degree", lambda *args: alone.append(args))
        assert multidegrees(toric_polar_map(cremona_poly(4))).values == (
            1, 4, 6, 4, 1)
    lane = kernel.lane_width(DEFAULT_PRIME)
    assert runs == [0, lane, lane, lane] and alone == []


@pytest.mark.parametrize("p", PRIMES)
@SETTINGS
@given(shapes=st.tuples(slice_shapes(), slice_shapes()), data=st.data())
def test_lanes_with_different_leads_never_give_a_basis(p, shapes, data):
    """Two slices of different shapes whose one-lane bases have different
    leads: the two-lane run raises `LaneDivergence`."""
    field = PrimeField(p)
    shape0, shape1 = shapes
    assume(len(shape0[0][0]) == len(shape1[0][0]))
    R0, R1 = (rabinowitsch(*specialize(field, s, data)) for s in shapes)
    order = block_order(1)
    assume(buchberger(R0, order).leading_exponents()
           != buchberger(R1, order).leading_exponents())
    with pytest.raises(LaneDivergence):
        buchberger((R0, R1), order)


def test_a_lead_zero_in_one_lane_parts_the_lanes():
    """x0 - x1 in lane 0 and x1 in lane 1: the lead x0 is 0 in lane 1."""
    F = PrimeField(101)
    x0, x1 = (Polynomial.variable(F, 2, i) for i in range(2))
    with pytest.raises(LaneDivergence, match=r"is 0 in lane 1"):
        buchberger((Ideal([x0 - x1]), Ideal([x1])), block_order(1))


# --- the lane field bound ---------------------------------------------------


@pytest.mark.parametrize("p", [2, 3, 101, 211, 32003, DEFAULT_PRIME])
def test_lane_width_holds_every_field_up_to_the_bound(p):
    """A pending field starts below 4p, and each of at most `LANE_STEPS`
    steps adds less than 2 p^2 (the cross terms of two lanes each below
    p)."""
    assert kernel.lane_width(p) == 2 * p.bit_length() + 34
    assert 4 * p + kernel.LANE_STEPS * 2 * p * p < 1 << kernel.lane_width(p)


@pytest.mark.parametrize("p", PRIMES)
@SETTINGS
@given(shape=slice_shapes(), steps=st.integers(1, 40), data=st.data())
def test_a_lowered_bound_raises_and_never_carries(p, shape, steps, data):
    """With `LANE_STEPS` lowered the lane fields narrow with it.  A
    reduction that pops more terms raises `ToricPolarError`; every run
    that ends gives each lane's own entries, so no field carried into the
    next."""
    field = PrimeField(p)
    R0, R1 = (rabinowitsch(*specialize(field, shape, data)) for _ in "ab")
    order = block_order(1)
    alone = [buchberger(R, order)._minimal.entries for R in (R0, R1)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernel, "LANE_STEPS", steps)
        assert kernel.lane_width(p) < 2 * p.bit_length() + 8
        try:
            G = buchberger((R0, R1), order)
        except LaneDivergence:
            return
        except ToricPolarError as exc:
            assert str(exc) == (
                f"a two-lane reduction passed {steps} terms, the most its "
                f"{kernel.lane_width(p)}-bit lane fields hold")
            return
    assert [lane.entries for lane in G._minimal.split_lanes()] == alone


def test_the_bound_is_checked():
    """The S-polynomial of x0*x1 - x1^2 and x0*x2 - x2^2 reduces over more
    than one term."""
    F = PrimeField(101)
    x0, x1, x2 = (Polynomial.variable(F, 3, i) for i in range(3))
    I = Ideal([x0 * x1 - x1 ** 2, x0 * x2 - x2 ** 2, x1 ** 3 - x2 ** 3])
    J = Ideal([x0 * x1 - 2 * x1 ** 2, x0 * x2 - 3 * x2 ** 2,
               x1 ** 3 - 5 * x2 ** 3])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernel, "LANE_STEPS", 1)
        with pytest.raises(ToricPolarError, match="passed 1 terms") as err:
            buchberger((I, J), block_order(1))
    assert not isinstance(err.value, LaneDivergence)


# --- a two-lane basis gives leads only --------------------------------------


def two_lane_saturation():
    F = PrimeField(101)
    x0, x1, x2 = (Polynomial.variable(F, 3, i) for i in range(3))
    I = Ideal([x0 * x1 - x2 ** 2, x0 ** 2 - x1 * x2])
    J = Ideal([x0 * x1 - 3 * x2 ** 2, x0 ** 2 - 7 * x1 * x2])
    return (saturate((I, J), (x0 + x1, x0 + 2 * x1)),
            saturate(I, x0 + x1), x0)


def test_a_two_lane_basis_gives_leads_only(monkeypatch):
    """Under TORICPOLAR_DEBUG, where `buchberger` checks each lane's basis
    on its own, the saturation ends and gives its leads, those of lane 0
    alone; its generators, normal forms and membership raise."""
    monkeypatch.setattr(groebner, "_DEBUG_CHECK_BASES", True)
    S, alone, x0 = two_lane_saturation()
    assert S.leading_exponents() == ((1, 1, 0), (2, 0, 0), (0, 2, 1))
    assert S.leading_exponents() == alone.leading_exponents()
    assert (groebner.hilbert_dim_degree(S)
            == groebner.hilbert_dim_degree(alone))
    for read in (lambda: S.generators, lambda: S.normal_form(x0),
                 lambda: S.contains(x0), lambda: list(S)):
        with pytest.raises(ToricPolarError, match="two-lane basis"):
            read()


def test_a_counting_loop_refuses_lanes(monkeypatch):
    """Homogeneous grevlex input of at most `arity` forms counts the
    complete-intersection bound, on one lane only."""
    monkeypatch.setattr(groebner, "_DEBUG_CHECK_BASES", True)
    F = PrimeField(101)
    x0, x1, x2 = (Polynomial.variable(F, 3, i) for i in range(3))
    I = Ideal([x0 * x1 - x2 ** 2, x1 ** 2 - x0 * x2])
    J = Ideal([x0 * x1 - 2 * x2 ** 2, x1 ** 2 - 3 * x0 * x2])
    with pytest.raises(ToricPolarError, match="runs one lane only"):
        buchberger((I, J), GREVLEX)


def test_the_debug_check_reads_each_lane(monkeypatch):
    """The check splits a two-lane basis into its lanes: it passes on the
    basis as made, and fails when one coefficient of lane 1 alone is
    changed."""
    monkeypatch.setattr(groebner, "_DEBUG_CHECK_BASES", True)
    F = PrimeField(101)
    x0, x1, x2 = (Polynomial.variable(F, 3, i) for i in range(3))
    I = Ideal([x0 * x1 - x2 ** 2, x1 ** 2 - x0 * x2])
    J = Ideal([x0 * x1 - 2 * x2 ** 2, x1 ** 2 - 3 * x0 * x2])
    G = buchberger((I, J), block_order(1))
    assert G.s_polynomials_reduce_to_zero()
    entries = G._minimal.entries
    k = next(k for k, (_, tail) in enumerate(entries) if tail)
    x, tail = entries[k]
    lane = G._minimal.lane
    y, c = tail[0]
    entries[k] = (x, [(y, c & (1 << lane) - 1 | (c >> lane) % 100 + 1 << lane),
                      *tail[1:]])
    lanes = G._minimal.split_lanes()
    assert lanes[0].entries == buchberger(I, block_order(1))._minimal.entries
    assert not G.s_polynomials_reduce_to_zero()


# --- the order of the outcomes and the fallback -----------------------------


def test_errors_are_raised_in_trial_order(monkeypatch):
    """The slices of (trial 1, j = 2) and (trial 0, j = 3) of Cremona n = 4
    fail.  The trials run by j, but the error raised is the one of the
    trial-by-trial order: trial 0 at j = 3, which comes before every slice
    of trial 1."""
    seed = 5
    real = maps._draw_slice

    def failing(phi, j, seed, trial):
        if (j, trial) in {(2, 1), (3, 0)}:
            raise SpecializationError("stand-in", (derive_seed(seed, j,
                                                               trial),))
        return real(phi, j, seed, trial)

    monkeypatch.setattr(maps, "_draw_slice", failing)
    with pytest.raises(SpecializationError) as err:
        multidegrees(toric_polar_map(cremona_poly(4)),
                     RandomizationConfig(seed=seed))
    assert err.value.seeds == (derive_seed(seed, 3, 0),)


def test_a_failed_trial_0_stops_the_later_j(monkeypatch):
    """Trial 0 fails at j = 2: nothing after it is sliced."""
    sliced = []
    real = maps._slice_degrees

    def recording(phi, j, seed, trials):
        sliced.append(j)
        out = real(phi, j, seed, trials)
        return [SpecializationError("stand-in", (j,))] + out[1:]

    monkeypatch.setattr(maps, "_slice_degrees", recording)
    with pytest.raises(SpecializationError, match="stand-in"):
        multidegrees(toric_polar_map(cremona_poly(4)))
    assert sliced == [2]


FALLBACK_VERIFY = """
import sys
from toricpolar import cli, maps

real = maps._slice_degree
alone = []


def counting(*args):
    alone.append(args)
    return real(*args)


maps._slice_degree = counting
code = cli.main(["verify", "--seed", "2", "--prime", "211", "--json"])
print(len(alone), file=sys.stderr)
sys.exit(code)
"""


def test_verify_at_a_small_prime_falls_back_and_keeps_its_output():
    """`TORICPOLAR_DEBUG=1 python -O -m toricpolar verify --seed 2 --prime
    211 --json`, run through `cli.main` so that the trials sliced alone
    are counted: at p = 211 some lanes part, and the output is the one
    each trial alone gave."""
    src = Path(groebner.__file__).resolve().parent.parent
    env = dict(os.environ, TORICPOLAR_DEBUG="1", PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-O", "-c", FALLBACK_VERIFY],
                          env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert (hashlib.md5(proc.stdout.encode()).hexdigest()
            == "eb4056d099ad74bafd68bf71a293f2b1")
    assert int(proc.stderr) >= 1
