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
from paradiag.diagrams.builtins import _bra_slices, _ket_slices, basis_ket, matrix_unit
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
        ket = evaluate_dense(basis_ket(d, labels)).as_state()
        expected = np.zeros(d ** len(labels))
        expected[labels[0] * d + labels[1]] = 1.0
        assert np.allclose(ket.amps, expected, atol=1e-9)
    unit = evaluate_dense(matrix_unit(2, (0, 1), (1, 1))).as_operator()
    expected = np.zeros((4, 4))
    expected[0b01, 0b11] = 1.0
    assert np.allclose(unit.mat, expected, atol=1e-9)
    sym = evaluate_symbolic(matrix_unit(2, (0, 1), (1, 1)))
    assert np.allclose(sym.array, expected, atol=1e-9)


def test_closed_neutral_loop_values():
    loop2 = Diagram(2, 0, (Generator(CAP, 1), Generator(CUP, 1)))
    value = closed_value(loop2)
    assert value == PhaseExponent(2, sqrtd_exp=1)
    assert value.to_complex() == pytest.approx(math.sqrt(2))

    charged = Diagram(3, 0, (Generator(CAP, 1), Generator(CHARGE, 2, k=1), Generator(CUP, 1)))
    assert closed_value(charged).zero_flag
    assert evaluate_dense(charged).scalar() == pytest.approx(0)

    # the charged loop is removed first; reduction goes on to the neutral one
    cap, cup = Generator(CAP, 1), Generator(CUP, 1)
    two_loops = Diagram(3, 0, (cap, Generator(CHARGE, 2, k=1), cup, cap, cup))
    assert closed_value(two_loops).zero_flag
    assert evaluate_dense(two_loops).scalar() == pytest.approx(0)


@pytest.mark.parametrize("charges", [((5, 2), (1, 5)), ((5, 2), (6, 5)), ((5, 1), (1, 1))])
def test_zigzag_fusion_encloses_nested_strings(charges):
    """A straightened zig-zag is one arc around the caps born inside it.

    Caps at 1, 1 and 4 joined by a cup at 2 straighten to the outer arc
    (1, 6) around (2, 5) and (3, 4): the same state as three nested caps.
    """
    cap, cup = Generator(CAP, 1), Generator(CUP, 2)
    marks = tuple(Generator(CHARGE, p, k=k) for p, k in charges)
    snake = Diagram(3, 0, (cap, cap, Generator(CAP, 4), cup, Generator(CAP, 3)) + marks)
    nested = Diagram(3, 0, (cap, Generator(CAP, 2), Generator(CAP, 3)) + marks)
    ref = evaluate_dense(nested).array
    assert np.max(np.abs(evaluate_symbolic(nested).array - ref)) <= 1e-9
    assert np.max(np.abs(evaluate_dense(snake).array - ref)) <= 1e-9
    assert np.max(np.abs(evaluate_symbolic(snake).array - ref)) <= 1e-9


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


def _frame_on(t, a, b, e, d):
    """The pending frame zeta**e (x)_i X**a_i Z**b_i applied to six string axes of t."""
    from paradiag.diagrams import dense

    out = t * dense._zeta_powers(d)[e % (d * d)]
    for p in (1, 3, 5):
        pair = dense._absorb(np.eye(d * d), a, b, p, d)
        out = np.matmul(pair, out.reshape(d ** (p - 1), d * d, -1))
    assert a == b == [0] * 6  # absorbing resets the frame
    return out.reshape(t.shape)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_dense_kernel_matches_definitions(d):
    """Charges and braids on six strings agree with their full-width definitions.

    A charge only updates the pending frame; absorbed pair by pair, the frame
    of one charge, and of a run of charges, must equal the definition.  The
    braid is the charge-pair sum over the principal sqrt(omega*d): sum_k
    c_p(k) c_(p+1)(-k) for the positive braid, sum_k c_(p+1)(k) c_p(-k) over
    the conjugate for the negative one.
    """
    from paradiag.diagrams import dense

    shape = [d] * 6 + [3]
    rng = np.random.default_rng(50 + d)
    t = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    runs = [[(s, k)] for s in range(1, 7) for k in range(-d, 2 * d)]
    runs += [[(int(s), int(k)) for s, k in zip(rng.integers(1, 7, 4), rng.integers(-d, 2 * d, 4))]
             for _ in range(20)]
    for run in runs:
        a, b, e, ref = [0] * 6, [0] * 6, 0, t
        for s, k in run:
            e += dense._charge(a, b, s, k % d)
            ref = _charge_reference(ref, s, k, d)
        assert np.max(np.abs(_frame_on(t, a, b, e, d) - ref)) <= 1e-12, run
    z = np.exp(1j * np.pi / d) if d % 2 == 0 else np.exp(2j * np.pi * ((d + 1) // 2) / d)
    sqrt_omega_d = np.sqrt(sum(z ** (j * j) for j in range(d)) * np.sqrt(d))
    for p in range(1, 6):
        for positive in (True, False):
            first, second = (p, p + 1) if positive else (p + 1, p)
            ref = sum(_charge_reference(_charge_reference(t, first, k, d), second, -k, d)
                      for k in range(d))
            ref = ref / (sqrt_omega_d if positive else np.conj(sqrt_omega_d))
            got = np.matmul(dense._braid_gate(d, positive), t.reshape(d ** (p - 1), d * d, -1))
            assert np.max(np.abs(got.reshape(shape) - ref)) <= 1e-12, (p, positive)


def _charges(d, positions):
    """A charge on each position in turn, each 1 mod d: 1 - d, 1, 1 + d, ..."""
    return tuple(Generator(CHARGE, p, k=1 + d * (i - 1)) for i, p in enumerate(positions))


def _cap_case(d, pos):
    """Two charged strings, a cap at ``pos``, then both cap strings charged."""
    return Diagram(d, 2, _charges(d, (2, 1)) + (Generator(CAP, pos),) + _charges(d, (pos + 1, pos)))


# Each case reaches an absorber with a non-identity frame on both of its
# strings: (diagram at d, absorber kind, how many such absorbs it must see).
ABSORB_CASES = {
    "cup": (lambda d: Diagram(d, 4, _charges(d, (4, 3, 2, 1)) + (Generator(CUP, 2),)), "cup", 1),
    "braid_pos": (lambda d: Diagram(d, 4, _charges(d, (4, 3, 2, 1)) + (Generator(BRAID_POS, 2),)),
                  "braid", 1),
    "braid_neg": (lambda d: Diagram(d, 4, _charges(d, (4, 3, 2, 1)) + (Generator(BRAID_NEG, 2),)),
                  "braid", 1),
    "cap_left": (lambda d: _cap_case(d, 1), "output", 2),
    "cap_between": (lambda d: _cap_case(d, 2), "output", 2),
    "cap_right": (lambda d: _cap_case(d, 3), "output", 2),
    "output_pairs": (lambda d: Diagram(d, 4, _charges(d, (4, 3, 2, 1))), "output", 2),
    "multicharge_twist": (
        lambda d: Diagram(d, 4, (Generator(MULTICHARGE, items=((1, 1), (2, d + 1), (4, d + 1))),)), "output", 2),
}


@pytest.mark.parametrize("d", range(2, 9))
@pytest.mark.parametrize("build, kind, count", ABSORB_CASES.values(), ids=ABSORB_CASES)
def test_dense_absorb_points_agree_entrywise(monkeypatch, build, kind, count, d):
    """Each absorber takes a charged frame on both strings; dense = symbolic entrywise."""
    from paradiag.diagrams import dense

    diag = build(d)
    for s in diag.slices:  # the twist -sum_{i<j} k_i k_j is off 0 mod d*d
        ks = [k for _, k in s.items]
        assert s.kind != MULTICHARGE or sum(x * y for i, x in enumerate(ks) for y in ks[i + 1:]) % (d * d)
    kinds = {(1, d * d): "cup", (d * d, d * d): "braid", (d, d * d): "output"}
    seen = []
    absorb = dense._absorb

    def spy(mat, a, b, p, d):
        if (a[p - 1] % d or b[p - 1] % d) and (a[p] % d or b[p] % d):
            seen.append(kinds[mat.shape])
        return absorb(mat, a, b, p, d)

    evaluate_dense(diag)  # build the cached operators before spying
    monkeypatch.setattr(dense, "_absorb", spy)
    got = evaluate_dense(diag).array
    assert seen.count(kind) == count
    assert np.max(np.abs(got - evaluate_symbolic(diag).array)) <= 1e-9


@pytest.mark.parametrize("d", [2, 3, 5])
def test_charge_only_diagrams_leave_cached_arrays_alone(d):
    """Charges never touch the tensor, so the cached start tensor stays as it was."""
    from paradiag.diagrams import dense

    charged = Diagram(d, 4, _charges(d, (4, 3, 2, 1)) + (Generator(MULTICHARGE, items=((1, 2), (3, 1))),))
    cached = [dense.basis_isometry(d, 2), dense.basis_isometry(d, 1), dense.pair_isometry(d),
              dense._pair_adjoint(d), dense._cap_vector(d), dense._zeta_powers(d),
              dense._order_phases(d, 2), dense._braid_gate(d, True), *dense._pauli_pair(d, 1, 1, 1, 1)]
    before = [arr.copy() for arr in cached]
    for diag in (charged, builtin("X", d), builtin("Y", d), builtin("Z", d)):
        evaluate_dense(diag)
    for arr, old in zip(cached, before):
        assert not arr.flags.writeable
        assert np.array_equal(arr, old)
    assert dense.basis_isometry(d, 2) is cached[0]


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
        assert not closed_value(far).zero_flag


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


def _clear_shape_caches():
    from paradiag.diagrams import dense, symbolic

    for cache in (symbolic._compile, symbolic._label_forms, dense._turn_excess):
        cache.cache_clear()


def test_symbolic_reduces_each_shape_once(monkeypatch):
    """Diagrams that differ only in charges share one reduction of one template."""
    from paradiag.diagrams import symbolic

    _clear_shape_caches()
    calls = []
    reduce_closed = symbolic._reduce_closed
    monkeypatch.setattr(symbolic, "_reduce_closed", lambda closed: calls.append(1) or reduce_closed(closed))
    d = 3

    def diag(k, items):
        return Diagram(d, 4, (Generator(BRAID_POS, 2), Generator(CHARGE, 1, k=k),
                              Generator(MULTICHARGE, items=items), Generator(BRAID_NEG, 1)))

    # a negative charge, then a charge of d*d or more; a multicharge in both
    for each in (diag(-2, ((1, 4), (3, -1))), diag(d * d + 2, ((1, -5), (3, 2 * d * d + 1)))):
        value = evaluate_symbolic(each).array
        assert np.max(np.abs(value - evaluate_dense(each).array)) <= 1e-9
    assert len(calls) == 1


# Pairs of diagrams whose charge-free shapes differ in one feature only.
SHAPE_TWINS = {
    "multicharge positions": (
        Diagram(3, 4, (Generator(MULTICHARGE, items=((1, 1), (2, 2))), Generator(CHARGE, 3, k=1))),
        Diagram(3, 4, (Generator(MULTICHARGE, items=((1, 1), (3, 2))), Generator(CHARGE, 3, k=1))),
    ),
    "braid handedness": (
        Diagram(3, 4, (Generator(CHARGE, 2, k=1), Generator(BRAID_POS, 2), Generator(CHARGE, 3, k=2))),
        Diagram(3, 4, (Generator(CHARGE, 2, k=1), Generator(BRAID_NEG, 2), Generator(CHARGE, 3, k=2))),
    ),
    "cap position": (
        Diagram(3, 2, (Generator(CAP, 1), Generator(CHARGE, 3, k=1), Generator(CHARGE, 2, k=2))),
        Diagram(3, 2, (Generator(CAP, 2), Generator(CHARGE, 3, k=1), Generator(CHARGE, 2, k=2))),
    ),
    "cup position": (
        Diagram(3, 4, (Generator(CHARGE, 2, k=1), Generator(CHARGE, 3, k=1), Generator(CUP, 1))),
        Diagram(3, 4, (Generator(CHARGE, 2, k=1), Generator(CHARGE, 3, k=1), Generator(CUP, 2))),
    ),
    "top": (
        Diagram(3, 2, (Generator(CHARGE, 1, k=1),)),
        Diagram(3, 4, (Generator(CHARGE, 1, k=1),)),
    ),
}


@pytest.mark.parametrize("first, second", SHAPE_TWINS.values(), ids=SHAPE_TWINS)
def test_shape_twins_do_not_share_a_compiled_form(first, second):
    """Back-to-back twins each get their own compiled shape in both evaluators."""
    _clear_shape_caches()
    values = []
    for each in (first, second, first):
        dense = evaluate_dense(each).array
        assert np.max(np.abs(evaluate_symbolic(each).array - dense)) <= 1e-9
        values.append(dense)
    assert values[0].shape != values[1].shape or np.max(np.abs(values[0] - values[1])) > 1e-3


def _recharged(diag, rng):
    """The same shape with every charge redrawn from [-d*d, 2*d*d)."""
    dd = diag.d * diag.d

    def draw():
        return int(rng.integers(-dd, 2 * dd))

    slices = []
    for s in diag.slices:
        if s.kind == CHARGE:
            s = Generator(CHARGE, s.pos, k=draw())
        elif s.kind == MULTICHARGE:
            s = Generator(MULTICHARGE, items=tuple((p, draw()) for p, _ in s.items))
        slices.append(s)
    return Diagram(diag.d, diag.top, tuple(slices), diag.scale)


@settings(max_examples=100, deadline=None)
@given(d=st.integers(2, 5), seed=st.integers(0, 2**32 - 1), max_braids=st.integers(0, 2))
def test_recharged_shape_agrees_entrywise(d, seed, max_braids):
    """Redrawn charges on a drawn shape keep dense = symbolic, and closed_value with them."""
    rng = np.random.default_rng(seed)
    diag = random_diagram(d, rng, max_braids=max_braids)
    for each in (diag, _recharged(diag, rng)):
        assert np.max(np.abs(evaluate_dense(each).array - evaluate_symbolic(each).array)) <= 1e-9
        if not each.has_braids():  # close the boundaries over drawn basis labels
            ket, bra = rng.integers(0, d, each.n_in), rng.integers(0, d, each.n_out)
            closed = Diagram(d, 0, tuple(_ket_slices(each.n_in, ket)) + each.slices
                             + tuple(_bra_slices(each.n_out, bra)))
            scalar = evaluate_symbolic(closed).scalar()
            assert abs(closed_value(closed).to_complex() - scalar) <= 1e-9
            assert abs(evaluate_dense(closed).scalar() - scalar) <= 1e-9


@st.composite
def diagrams(draw, d, top=None, max_braids=2, max_strings=6, max_slices=8):
    """Diagrams drawn slice by slice, bounded as ``random_diagram`` bounds them.

    Kinds are listed simplest first, so a failure shrinks towards charges and
    caps, fewer slices and lower positions.
    """
    if top is None:
        top = 2 * draw(st.integers(0, max_strings // 2))
    width, braids, slices = top, 0, []
    charge = st.integers(-d, 2 * d - 1)
    for _ in range(draw(st.integers(0, max_slices))):
        kinds = [CHARGE] if width else []
        kinds += [CAP] if width + 2 <= max_strings else []
        kinds += [CUP, MULTICHARGE] if width >= 2 else []
        kinds += [BRAID_POS, BRAID_NEG] if width >= 2 and braids < max_braids else []
        kind = draw(st.sampled_from(kinds))
        if kind == CHARGE:
            slices.append(Generator(CHARGE, draw(st.integers(1, width)), k=draw(charge)))
        elif kind == CAP:
            slices.append(Generator(CAP, draw(st.integers(1, width + 1))))
            width += 2
        elif kind == CUP:
            slices.append(Generator(CUP, draw(st.integers(1, width - 1))))
            width -= 2
        elif kind == MULTICHARGE:
            positions = draw(st.lists(st.integers(1, width), min_size=2, max_size=3, unique=True))
            slices.append(Generator(MULTICHARGE, items=tuple((p, draw(charge)) for p in positions)))
        else:
            slices.append(Generator(kind, draw(st.integers(1, width - 1))))
            braids += 1
    scale = DiagramScale.of(d, zeta_exp=draw(st.integers(0, d * d - 1)), quarter=draw(st.integers(-2, 2)))
    return Diagram(d, top, tuple(slices), scale)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), d=st.integers(2, 5))
def test_drawn_diagrams_agree_entrywise(data, d):
    """Dense = symbolic entrywise over drawn slice orders."""
    diag = data.draw(diagrams(d))
    assert np.max(np.abs(evaluate_dense(diag).array - evaluate_symbolic(diag).array)) <= 1e-9


@settings(max_examples=100, deadline=None)
@given(data=st.data(), d=st.integers(2, 5))
def test_drawn_mirror_is_adjoint(data, d):
    from paradiag.diagrams import mirror

    diag = data.draw(diagrams(d))
    ref = evaluate_dense(diag).array.conj().T
    flipped = mirror(diag)
    assert np.max(np.abs(evaluate_dense(flipped).array - ref)) <= 1e-9
    assert np.max(np.abs(evaluate_symbolic(flipped).array - ref)) <= 1e-9


@settings(max_examples=100, deadline=None)
@given(data=st.data(), d=st.integers(2, 5))
def test_drawn_stacking_composes(data, d):
    """Stacking two drawn diagrams, at most two braids in all, composes their values."""
    upper = data.draw(diagrams(d, max_braids=1, max_slices=5))
    lower = data.draw(diagrams(d, top=upper.bottom, max_braids=1, max_slices=5))
    stacked = Diagram(d, upper.top, upper.slices + lower.slices, upper.scale * lower.scale)
    product = evaluate_dense(lower).array @ evaluate_dense(upper).array
    assert np.max(np.abs(evaluate_dense(stacked).array - product)) <= 1e-9
    assert np.max(np.abs(evaluate_symbolic(stacked).array - product)) <= 1e-9


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
