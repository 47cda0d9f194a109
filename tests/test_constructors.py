"""The library boundary: every public constructor of the Fock layer and of
the element table either builds a value that equals itself rebuilt from its
parts, or raises ValueError naming the argument at fault. It never raises
TypeError, AttributeError or KeyError, and never builds a value that fails
only later, in a kernel.

Each argument in turn is drawn from one mixed strategy while the others are
well-formed: ints (huge ones too), bools, floats with NaN and infinities,
strings, None, lists, tuples, dicts, numpy scalars, and the well-formed
values of every argument.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pgw.fock_core import H, V, DetectionPattern, FockKet, ModeId, ModeTransform, Register
from pgw.optical_elements import ELEMENTS, ElementSpec

_WELL_FORMED = [
    "A", "B", H, V, ("A", "B"), ModeId("A", H), ("A", V), ("A", "X"), (3, H),
    (ModeId("A", H),), (ModeId("A", H), ModeId("B", V)), Register(("A",)),
    ((1, 0), (0, 1)), [[0, 1], [1, 0]], (0, 1), {(1, 0): 1.0}, {ModeId("A", H): 1},
    {("A", V): 0, ("A", H): 1}, *ELEMENTS, 22.5]
_HASHABLE = st.one_of(
    st.integers(-2, 2), st.integers(), st.booleans(),
    st.floats(allow_nan=True, allow_infinity=True), st.complex_numbers(max_magnitude=2.0),
    st.text(max_size=2), st.none(),
    st.sampled_from([np.float64(0.5), np.int64(1), np.complex128(0.5j), np.str_("A"),
                     np.bool_(True)]),
    st.sampled_from([v for v in _WELL_FORMED if not isinstance(v, (list, dict))]))
_MIXED = st.one_of(
    _HASHABLE, st.sampled_from(_WELL_FORMED),
    st.lists(_HASHABLE, max_size=4), st.lists(_HASHABLE, max_size=4).map(tuple),
    st.lists(st.lists(_HASHABLE, max_size=2), max_size=2),
    st.dictionaries(_HASHABLE, _HASHABLE, max_size=3))

# Constructor -> (its well-formed arguments, a pattern naming each in an
# error, the value rebuilt from its parts).
_CONSTRUCTORS = {
    Register: (
        {"spatial_labels": ("A", "B"), "cutoff": 4, "modes": None},
        {"spatial_labels": "spatial", "cutoff": "cutoff", "modes": "mode|spatial port label"},
        lambda r: Register(cutoff=r.cutoff, modes=r.modes)),
    FockKet: (
        {"register": Register(("A",)), "terms": {(1, 0): 0.6, (0, 1): 0.8j}},
        {"register": "register", "terms": "terms|amplitude|occupation|photons|norm"},
        lambda k: FockKet(k.register, k.terms)),
    DetectionPattern: (
        {"required": {ModeId("A", H): 1, ModeId("A", V): 0}, "label": "hit", "j": 1},
        {"required": "required|mode|spatial port label", "label": "label", "j": "^j "},
        lambda p: DetectionPattern(dict(p.required), p.label, p.j)),
    ElementSpec: (
        {"kind": "hwp", "args": ("A",), "angle_degrees": 22.5},
        {"kind": r"kind|^\w+ takes", "args": "takes exactly|arguments", "angle_degrees": "angle"},
        lambda e: ElementSpec(e.kind, e.args, e.angle_degrees)),
    ModeTransform: (
        {"register": Register(("A",)), "matrix": [[0, 1], [1, 0]], "modes": None},
        {"register": "register", "matrix": "matrix", "modes": "modes|per mode"},
        lambda t: ModeTransform(t.register, t.rows, t.touched)),
}
_ARGUMENTS = [(ctor, name) for ctor, (kwargs, _, _) in _CONSTRUCTORS.items() for name in kwargs]


def _parts(value):
    """What equality compares: FockKet has no __eq__, so its register and terms."""
    return (value.register, value.terms) if isinstance(value, FockKet) else value


@pytest.mark.parametrize("ctor, argument", _ARGUMENTS,
                         ids=[f"{ctor.__name__}-{name}" for ctor, name in _ARGUMENTS])
@settings(max_examples=60, deadline=None)
@given(value=_MIXED)
def test_a_constructor_builds_a_value_or_names_the_argument(ctor, argument, value):
    kwargs, naming, rebuild = _CONSTRUCTORS[ctor]
    try:
        built = ctor(**dict(kwargs, **{argument: value}))
    except ValueError as e:
        assert re.search(naming[argument], str(e)), f"{argument}: {e}"
        return
    assert _parts(rebuild(built)) == _parts(built)
    if not isinstance(built, FockKet):
        assert hash(rebuild(built)) == hash(built)


# The defects of the boundary, one per line: each used to build a value that
# failed later, or to raise TypeError or AttributeError.
_REFUSED = {
    "bare-string-labels": (lambda: Register("AB"), "^spatial_labels must be"),
    "none-labels": (lambda: Register(None), "^spatial_labels must be"),
    "int-occupation": (lambda: FockKet(Register(("A",)), {5: 1.0}),
                       "^occupation counts must be ints >= 0, got 5$"),
    "none-amplitude": (lambda: FockKet(Register(("A",)), {(1, 0): None}),
                       "^amplitudes must be a flat sequence of numbers"),
    "string-amplitude": (lambda: FockKet(Register(("A",)), {(1, 0): "1"}),
                         "^amplitudes must be a flat sequence of numbers"),
    "huge-amplitude": (lambda: FockKet(Register(("A",)), {(1, 0): 10 ** 400}),
                       "^amplitudes must be a flat sequence of numbers"),
    "list-of-terms": (lambda: FockKet(Register(("A",)), [((1, 0), 1.0)]), "^terms must map"),
    "string-mode": (lambda: DetectionPattern({"A.H": 1}),
                    r"^required must hold \(spatial label, polarization\) pairs, got 'A.H'$"),
    "list-of-required": (lambda: DetectionPattern([(ModeId("A", H), 1)]),
                         "^required must map modes to photon counts"),
    "string-j": (lambda: DetectionPattern({ModeId("A", H): 1}, j="x"),
                 "^j must be 0 or 1, got 'x'$"),
    "j-of-2": (lambda: DetectionPattern({ModeId("A", H): 1}, j=2), "^j must be 0 or 1, got 2$"),
    "string-angle": (lambda: ElementSpec("hwp", ("A",), "22.5"),
                     "^hwp angle must be a number of degrees, got '22.5'$"),
    "none-angle": (lambda: ElementSpec("hwp", ("A",), None),
                   "^hwp angle must be a number of degrees, got None$"),
    "list-kind": (lambda: ElementSpec(["pbs"], ("A", "B")),
                  r"^unknown element kind \['pbs'\]$"),
    "int-port": (lambda: ElementSpec("pbs", ("A", 1)),
                 r"^pbs takes exactly 2 spatial port\(s\), got \('A', 1\)$"),
    "mode-of-wrong-shape": (lambda: ElementSpec("swap", (ModeId(1, "X"), ModeId("A", H))),
                            r"^swap args \(ModeId\(spatial_label=1, polarization='X'\), "
                            r"ModeId\(spatial_label='A', polarization='H'\)\): spatial port "
                            "label 1 is not a string$"),
    "mode-neither-h-nor-v": (lambda: ElementSpec("swap", (ModeId("A", H), ModeId("B", "X"))),
                             r"^swap args .*: mode B\.X is neither H nor V polarized$"),
    "string-transform-modes": (lambda: ModeTransform(Register(("A",)), [[0, 1], [1, 0]],
                                                     ["a", "b"]),
                               r"^modes \['a', 'b'\] out of range for a 2-mode register$"),
    "huge-matrix-entry": (lambda: ModeTransform(Register(("A",)), [[10 ** 400, 0], [0, 1]]),
                          "^matrix is not 2 x 2"),
    "none-register": (lambda: ModeTransform(None, [[1]]), "^register must be a Register"),
    "none-ket-register": (lambda: FockKet(None, {}), "^register must be a Register"),
}


@pytest.mark.parametrize("call, message", _REFUSED.values(), ids=_REFUSED)
def test_a_malformed_argument_is_refused_at_construction(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_a_mode_may_be_given_as_its_plain_tuple():
    """A ModeId equals its plain tuple, so either names a mode."""
    assert Register(modes=[("A", H), ("A", V)]) == Register(("A",))
    assert Register(modes=[("A", H)]).modes == (ModeId("A", H),)
    pattern = DetectionPattern({("A", V): 0, ("A", H): 1})
    assert pattern == DetectionPattern({ModeId("A", H): 1, ModeId("A", V): 0})
    assert all(type(mode) is ModeId for mode, _ in pattern.required)
    assert pattern.label == "A.H=1,A.V=0"
