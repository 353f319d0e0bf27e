"""Every sumset and productset kernel gives the same set. Each kernel is
forced through the price constants of recipsums.growth: the Python one (a
shifted OR for sums, a loop over pairs for products), the numpy pair
enumeration, and the convolution (through discrete logs, for products)."""

import math
import types
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recipsums import PrimeField, ResidueSet, growth, productset, sumset
from recipsums.basesets import BaseSetSpec, build_prime_reciprocal_set, primes_up_to
from recipsums.cli import main

PRICED_OUT = {"_SHIFT_NS": (math.inf, 0), "_PRODUCT_NS": (math.inf, 0)}
FORCE = {
    "python": {"_SHIFT_NS": (0, 0), "_PRODUCT_NS": (0, 0)},
    "enumerate": {**PRICED_OUT, "_NAIVE_PAIRS_PER_RESIDUE": math.inf},
    "convolve": {**PRICED_OUT, "_NAIVE_PAIRS_PER_RESIDUE": -1},
}
KERNELS = {
    sumset: {"python": "_shifted_sum", "enumerate": "sumset_naive", "convolve": "sumset_conv"},
    productset: {"python": "_paired_products", "enumerate": "productset_naive", "convolve": "productset_dlog"},
}


def forced(mp, kernel, ran=None):
    for name, value in FORCE[kernel].items():
        mp.setattr(growth, name, value)
    if ran is not None:
        for names in KERNELS.values():
            for name in names.values():
                fn = getattr(growth, name)
                mp.setattr(growth, name, lambda a, b, fn=fn, name=name: ran.append(name) or fn(a, b))


@st.composite
def operands(draw):
    """(A, B) over one field with p <= 1000: empty, full, or some residues,
    0 among them or not, of sizes drawn apart; B is A itself half the time."""
    field = PrimeField(draw(st.sampled_from(primes_up_to(1000))))

    def one():
        kind = draw(st.sampled_from(["some", "some", "empty", "full"]))
        if kind != "some":
            return getattr(ResidueSet, kind)(field)
        members = draw(st.lists(st.integers(1, field.p - 1), max_size=draw(st.sampled_from([3, 40, 400]))))
        return ResidueSet.from_members(field, members + [0] * draw(st.booleans()))

    a = one()
    return a, a if draw(st.booleans()) else one()


@settings(max_examples=150, deadline=None)
@given(operands())
def test_every_kernel_gives_the_same_set(ab):
    a, b = ab
    p = a.field.p
    expected = {
        sumset: sorted({(x + y) % p for x in a for y in b}),
        productset: sorted({x * y % p for x in a for y in b}),
    }
    for op, names in KERNELS.items():
        for kernel, name in names.items():
            ran = []
            with pytest.MonkeyPatch.context() as mp:
                forced(mp, kernel, ran)
                assert op(a, b).to_list() == expected[op], (op.__name__, kernel)
            assert ran == [name]


@pytest.mark.parametrize("p", [99929, 1000003])
def test_growth_reports_agree_under_every_kernel(capsys, p):
    reports = {}
    for kernel in FORCE:
        with pytest.MonkeyPatch.context() as mp:
            forced(mp, kernel)
            assert main(["grow", "--p", str(p), "--k", "1", "--beta", "1/4"]) == 0
        reports[kernel] = capsys.readouterr().out
    assert reports["python"] == reports["enumerate"] == reports["convolve"]


@pytest.mark.parametrize("p, numpy_runs", [
    (99929, []),
    (1000003, [(2, "productset_naive"), (2, "sumset_naive")]),
])
def test_numpy_is_imported_only_where_its_price_repays_it(monkeypatch, p, numpy_runs):
    """From a start without numpy, the benchmark-size run at p = 99929 stays
    in Python. At p = 1000003 the productset of the last step (2199 members)
    loads numpy, and the sumset after it, with numpy loaded, enumerates too."""
    modules, steps, runs = {}, [], []
    monkeypatch.setattr(growth, "sys", types.SimpleNamespace(modules=modules))
    for name in ("sumset_naive", "sumset_conv", "productset_naive", "productset_dlog"):
        fn = getattr(growth, name)
        monkeypatch.setattr(growth, name, lambda a, b, fn=fn, name=name: modules.setdefault("numpy")
                            or runs.append((len(steps) - 1, name)) or fn(a, b))
    grow_step = growth.grow_step
    monkeypatch.setattr(growth, "grow_step", lambda s: steps.append(s) or grow_step(s))
    base, _ = build_prime_reciprocal_set(BaseSetSpec(PrimeField(p), 1, Fraction(1, 4)))
    growth.grow_until(base, growth.GrowthConfig(), 1, Fraction(1, 4))
    assert len(steps) == 3 and runs == numpy_runs
