"""Diagram IR, parsing, builtins and the two evaluators."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paradiag.algebra import max_state, pauli
from paradiag.diagrams import (
    BRAID_NEG,
    BRAID_POS,
    CAP,
    CHARGE,
    CUP,
    MULTICHARGE,
    Diagram,
    DiagramError,
    DiagramScale,
    Generator,
    builtin,
    closed_value,
    evaluate_dense,
    evaluate_symbolic,
    parse_diagram,
    random_diagram,
)
from paradiag.diagrams.ir import diagram_to_json
from paradiag.scalars import PhaseExponent, equal_up_to_global_phase


def test_parse_identity_diagram():
    diag = parse_diagram('{"d":2,"top":2,"slices":[]}')
    assert diag.top == 2 and diag.bottom == 2 and diag.n_in == 1
    assert np.allclose(evaluate_dense(diag).array, np.eye(2))


def test_parse_strand_slices_are_identity():
    diag = parse_diagram(
        '{"d":3,"top":2,"slices":[{"kind":"strand","pos":1},{"kind":"strand","pos":2}]}'
    )
    assert np.allclose(evaluate_dense(diag).array, np.eye(3))
    assert np.allclose(evaluate_symbolic(diag).array, np.eye(3))


def test_parse_pauli_x_diagram():
    diag = parse_diagram('{"d":2,"top":2,"slices":[{"kind":"charge","pos":2,"k":1}]}')
    assert np.allclose(evaluate_dense(diag).array, pauli(2, "X").mat)


def test_parse_closed_loop():
    diag = parse_diagram('{"d":3,"top":0,"slices":[{"kind":"cap","pos":1},{"kind":"cup","pos":1}]}')
    assert diag.top == 0 and diag.bottom == 0
    assert evaluate_dense(diag).scalar() == pytest.approx(math.sqrt(3))


def test_parse_errors_carry_context():
    with pytest.raises(DiagramError, match="line 1"):
        parse_diagram("{nope")
    with pytest.raises(DiagramError, match="slice 0"):
        parse_diagram('{"d":2,"top":2,"slices":[{"kind":"wat"}]}')
    with pytest.raises(DiagramError, match="cup position"):
        parse_diagram('{"d":2,"top":0,"slices":[{"kind":"cup","pos":1}]}')
    with pytest.raises(DiagramError, match="even"):
        parse_diagram('{"d":2,"top":1,"slices":[]}')
    with pytest.raises(DiagramError, match="cap position"):
        parse_diagram('{"d":2,"top":2,"slices":[{"kind":"cap","pos":5}]}')


def test_diagram_json_round_trip():
    diag = Diagram(
        3,
        2,
        (
            Generator(MULTICHARGE, items=((1, 2), (2, -1))),
            Generator(BRAID_POS, pos=1),
            Generator(CHARGE, pos=1, k=4),
        ),
        DiagramScale.of(3, zeta_exp=2, sqrtd_exp=-1),
    )
    back = parse_diagram(diagram_to_json(diag))
    assert back.slices == diag.slices
    assert back.scale == diag.scale


def test_quarter_prefactor_round_trip():
    diag = builtin("max", 2, n=3)
    back = parse_diagram(diagram_to_json(diag))
    assert back.scale.quarter == -3
    assert np.allclose(evaluate_dense(back).array, evaluate_dense(diag).array)


def test_empty_diagram_is_scalar_one():
    empty = Diagram(2, 0, ())
    assert evaluate_dense(empty).scalar() == pytest.approx(1)
    assert evaluate_symbolic(empty).array[0, 0] == pytest.approx(1)
    assert closed_value(empty).to_complex() == pytest.approx(1)


def test_builtin_charge_placements():
    z3 = builtin("Z", 3)
    assert z3.slices[0].kind == MULTICHARGE
    assert z3.slices[0].items == ((1, 1), (2, -1))
    y3 = builtin("Y", 3)
    assert y3.slices[0].pos == 1 and y3.slices[0].k == -1
    bell = builtin("bell", 2)
    assert bell.scale.quarter == -2  # d**(-1/2)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
@pytest.mark.parametrize("name", ["I", "X", "Y", "Z"])
def test_builtin_pauli_dictionary_both_backends(d, name):
    expected = np.eye(d) if name == "I" else pauli(d, name).mat
    diag = builtin(name, d)
    assert np.max(np.abs(evaluate_dense(diag).array - expected)) < 1e-9
    assert np.max(np.abs(evaluate_symbolic(diag).array - expected)) < 1e-9


@pytest.mark.parametrize("d", [2, 3])
def test_builtin_bell_equals_max_two(d):
    bell = evaluate_dense(builtin("bell", d)).as_state()
    assert equal_up_to_global_phase(bell.amps, max_state(d, 2).amps)


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_max_diagram_both_backends(d, n):
    diag = builtin("max", d, n=n)
    ref = max_state(d, n).amps
    assert equal_up_to_global_phase(evaluate_dense(diag).as_state().amps, ref)
    assert equal_up_to_global_phase(evaluate_symbolic(diag).array.reshape(-1), ref)


def test_basis_and_matrix_unit_builtins():
    for d, labels in ((2, (0, 1)), (3, (2, 1))):
        ket = evaluate_dense(builtin("basis", d, labels=labels)).as_state()
        expected = np.zeros(d ** len(labels))
        expected[labels[0] * d + labels[1]] = 1.0
        assert np.allclose(ket.amps, expected, atol=1e-9)
    unit = evaluate_dense(builtin("matrix_unit", 2, labels=(0, 1), bra=(1, 1))).as_operator()
    expected = np.zeros((4, 4))
    expected[0b01, 0b11] = 1.0
    assert np.allclose(unit.mat, expected, atol=1e-9)
    sym = evaluate_symbolic(builtin("matrix_unit", 2, labels=(0, 1), bra=(1, 1)))
    assert np.allclose(sym.array, expected, atol=1e-9)


def test_closed_neutral_loop_values():
    loop2 = Diagram(2, 0, (Generator(CAP, 1), Generator(CUP, 1)))
    value = closed_value(loop2)
    assert value.phase == PhaseExponent(2, sqrtd_exp=1)
    assert value.to_complex() == pytest.approx(math.sqrt(2))

    charged = Diagram(3, 0, (Generator(CAP, 1), Generator(CHARGE, 2, k=1), Generator(CUP, 1)))
    assert closed_value(charged).phase.zero_flag
    assert evaluate_dense(charged).scalar() == pytest.approx(0)

    # the charged loop is removed first; reduction goes on to the neutral one
    cap, cup = Generator(CAP, 1), Generator(CUP, 1)
    two_loops = Diagram(3, 0, (cap, Generator(CHARGE, 2, k=1), cup, cap, cup))
    assert closed_value(two_loops).phase.zero_flag
    assert evaluate_dense(two_loops).scalar() == pytest.approx(0)


def test_closed_value_rejects_braids_and_boundaries():
    with pytest.raises(DiagramError):
        closed_value(Diagram(2, 2, ()))
    braided = Diagram(2, 0, (Generator(CAP, 1), Generator(BRAID_POS, 1), Generator(CUP, 1)))
    with pytest.raises(DiagramError):
        closed_value(braided)


def _charge_reference(t, s, k, d):
    """c_s(k) on the string axes of t, read off its definition.

    Xhat**k shifts string s by k; each string before s carries a clock tail
    Zhat**-k, the phase q**(-k*m) on label m, applied one axis at a time.
    """
    q = np.exp(2j * np.pi / d)
    out = np.roll(t, k, axis=s - 1)
    for axis in range(s - 1):
        shape = [1] * t.ndim
        shape[axis] = d
        out = out * (q ** (-k * np.arange(d))).reshape(shape)
    return out


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_dense_kernel_matches_definitions(d):
    """Charges and braids on six strings agree with their full-width definitions.

    The braid is the charge-pair sum over the principal sqrt(omega*d): sum_k
    c_p(k) c_(p+1)(-k) for the positive braid, sum_k c_(p+1)(k) c_p(-k) over
    the conjugate for the negative one.
    """
    from paradiag.diagrams import dense

    shape = [d] * 6 + [3]
    rng = np.random.default_rng(50 + d)
    t = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    for s in range(1, 7):
        for k in range(-d, 2 * d):
            got = dense._apply_charge(t, s, k, d).reshape(shape)
            assert np.max(np.abs(got - _charge_reference(t, s, k, d))) <= 1e-12, (s, k)
    z = np.exp(1j * np.pi / d) if d % 2 == 0 else np.exp(2j * np.pi * ((d + 1) // 2) / d)
    sqrt_omega_d = np.sqrt(sum(z ** (j * j) for j in range(d)) * np.sqrt(d))
    for p in range(1, 6):
        for positive in (True, False):
            first, second = (p, p + 1) if positive else (p + 1, p)
            ref = sum(_charge_reference(_charge_reference(t, first, k, d), second, -k, d)
                      for k in range(d))
            ref = ref / (sqrt_omega_d if positive else np.conj(sqrt_omega_d))
            got = dense._apply_braid(t, p, d, positive).reshape(shape)
            assert np.max(np.abs(got - ref)) <= 1e-12, (p, positive)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_braid_unitary_and_reidemeister(d):
    b = evaluate_dense(builtin("braid_pos", d)).as_operator()
    assert b.is_unitary()
    both = Diagram(d, 2, (Generator(BRAID_POS, 1), Generator(BRAID_NEG, 1)))
    assert np.max(np.abs(evaluate_dense(both).array - np.eye(d))) < 1e-9
    assert np.max(np.abs(evaluate_symbolic(both).array - np.eye(d))) < 1e-9


@pytest.mark.parametrize("d", [2, 3])
def test_charge_addition_and_mod_d(d):
    for k in range(-d, 2 * d):
        stacked = Diagram(d, 2, (Generator(CHARGE, 1, k), Generator(CHARGE, 1, d - k)))
        assert np.max(np.abs(evaluate_dense(stacked).array - np.eye(d))) < 1e-9
    bare = Diagram(d, 2, (Generator(CHARGE, 2, d),))
    assert np.max(np.abs(evaluate_symbolic(bare).array - np.eye(d))) < 1e-9


def test_symbolic_exact_for_huge_charges():
    """Charges far beyond int64 give the value of their residue mod d*d."""
    big = 7 * 10**30
    for d in (2, 3):
        shift = d * d * big
        huge = Diagram(d, 4, (Generator(MULTICHARGE, items=((1, 1 + shift), (4, 2 - shift))),
                              Generator(CHARGE, 2, k=shift - 1)))
        small = Diagram(d, 4, (Generator(MULTICHARGE, items=((1, 1), (4, 2))), Generator(CHARGE, 2, k=-1)))
        assert np.array_equal(evaluate_symbolic(huge).array, evaluate_symbolic(small).array)
        cap, cup, minus = Generator(CAP, 1), Generator(CUP, 1), Generator(CHARGE, 2, -1)
        far, near = (Diagram(d, 0, (cap, Generator(CHARGE, 1, k), minus, cup)) for k in (shift + 1, 1))
        assert closed_value(far) == closed_value(near)
        assert not closed_value(far).phase.zero_flag


@pytest.mark.parametrize("d", [2, 3])
def test_twisted_product_distinguishes_k_plus_d(d):
    z = np.exp(1j * np.pi / d) if d % 2 == 0 else np.exp(2j * np.pi * ((d + 1) // 2) / d)
    for k in range(2 * d):
        for l in range(2 * d):
            same = Diagram(d, 2, (Generator(MULTICHARGE, items=((1, k), (2, l))),))
            below = Diagram(d, 2, (Generator(CHARGE, 2, l), Generator(CHARGE, 1, k)))
            got = evaluate_dense(same).array
            ref = z ** (-k * l) * evaluate_dense(below).array
            assert np.max(np.abs(got - ref)) < 1e-9, (k, l)


@pytest.mark.parametrize("d", [2, 3])
def test_backend_cross_check_quick(d):
    rng = np.random.default_rng(100 + d)
    for _ in range(40):
        diag = random_diagram(d, rng)
        dense = evaluate_dense(diag).array
        symbolic = evaluate_symbolic(diag).array
        assert np.max(np.abs(dense - symbolic)) < 1e-9


@settings(max_examples=100, deadline=None)
@given(d=st.integers(2, 5), seed=st.integers(0, 2**32 - 1))
def test_backends_agree_entrywise(d, seed):
    """Dense and symbolic values agree entry by entry, not up to a phase."""
    diag = random_diagram(d, np.random.default_rng(seed))
    assert np.max(np.abs(evaluate_dense(diag).array - evaluate_symbolic(diag).array)) <= 1e-9


def test_symbolic_reduces_each_diagram_once(monkeypatch):
    """All entries and braid terms come from one reduction of one template."""
    from paradiag.diagrams import symbolic

    calls = []
    reduce_closed = symbolic._reduce_closed
    monkeypatch.setattr(symbolic, "_reduce_closed", lambda closed: calls.append(1) or reduce_closed(closed))
    diag = Diagram(3, 4, (Generator(BRAID_POS, 2), Generator(CHARGE, 1, k=2), Generator(BRAID_NEG, 1)))
    value = evaluate_symbolic(diag).array
    assert len(calls) == 1
    assert np.max(np.abs(value - evaluate_dense(diag).array)) < 1e-9


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_mirror_evaluates_to_adjoint(d):
    """Charge-inverting vertical reflection is the dagger, both backends."""
    from paradiag.diagrams import mirror

    rng = np.random.default_rng(777 + d)
    for _ in range(30):
        diag = random_diagram(d, rng)
        flipped = mirror(diag)
        ref = evaluate_dense(diag).array.conj().T
        assert np.max(np.abs(evaluate_dense(flipped).array - ref)) < 1e-9
        assert np.max(np.abs(evaluate_symbolic(flipped).array - ref)) < 1e-9


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_stacking_composes(d):
    """Stacked diagrams evaluate to the matrix product of the pieces."""
    rng = np.random.default_rng(4242 + d)
    checked = 0
    while checked < 25:
        upper = random_diagram(d, rng, max_slices=5)
        lower = random_diagram(d, rng, max_slices=5)
        if upper.bottom != lower.top:
            continue
        stacked = Diagram(d, upper.top, upper.slices + lower.slices, upper.scale * lower.scale)
        if max(stacked.widths) > 6:
            continue
        product = evaluate_dense(lower).array @ evaluate_dense(upper).array
        assert np.max(np.abs(evaluate_dense(stacked).array - product)) < 1e-9
        assert np.max(np.abs(evaluate_symbolic(stacked).array - product)) < 1e-9
        checked += 1


def test_random_diagram_respects_bounds():
    rng = np.random.default_rng(0)
    for _ in range(200):
        diag = random_diagram(2, rng)
        assert max(diag.widths) <= 6
        assert len(diag.slices) <= 8
        braids = sum(s.kind in (BRAID_POS, BRAID_NEG) for s in diag.slices)
        assert braids <= 2
