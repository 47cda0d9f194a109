"""The public names of `import pgw`, its submodules included, written out.

Adding or removing a name, or a submodule, is then a named edit of this
list.
"""

import types

import pgw

_SUBMODULES = ["fock_core", "mb_bridge", "optical_elements", "optical_gates", "qubit_teleport",
               "verify", "workbench_cli"]

_NAMES = [
    "Branch", "CircuitFile", "DetectionPattern", "ElementSpec", "FockKet", "GateResult",
    "MBEncoding", "ModeId", "ModeTransform", "QubitState", "Register", "Report",
    "apply_mode_transform", "bell_state", "cnot_via_cz", "cz_via_two_telegates",
    "destructive_cnot", "e_cnot", "f_gate", "fidelity_up_to_global_phase", "hwp", "main",
    "mb_decode", "mb_encode", "measure_and_postselect", "mode_swap", "parity_filter",
    "parse_circuit", "pbm", "pbs", "pockels_z", "quantum_parity_check", "run_circuit",
    "single_photon", "superpose", "telegate_t", "tensor", "verify_aux_state_equivalence",
    "verify_ecnot_equals_tcnot", "verify_f_equals_tprime", "verify_hwp_mb", "verify_pbs_mb",
    "z_correction",
]


def test_the_public_names_of_pgw_are_pinned():
    public = sorted(name for name in dir(pgw) if not name.startswith("_"))
    assert public == sorted(_NAMES + _SUBMODULES)
    assert [name for name in public if isinstance(getattr(pgw, name), types.ModuleType)] \
        == _SUBMODULES
