"""Post-selected photonic CNOT workbench.

Layers: sparse Fock states and mode maps (fock_core), passive optical
elements (optical_elements), the post-selected filter and CNOT gates
(optical_gates, which writes each gate once as an element expansion and
holds the one runner that both the library gates and circuit files use),
their teleportation counterparts on qubits (qubit_teleport), the
mixed-basis dictionary tying the two together (mb_bridge), the check suites
and truth tables (verify), and the command line and circuit parser (workbench_cli).
"""

from .fock_core import (
    Branch,
    DetectionPattern,
    FockKet,
    GateResult,
    ModeId,
    ModeTransform,
    Register,
    apply_mode_transform,
    measure_and_postselect,
    single_photon,
    tensor,
)
from .optical_elements import ElementSpec, hwp, mode_swap, pbs, pockels_z
from .optical_gates import (
    destructive_cnot,
    e_cnot,
    f_gate,
    quantum_parity_check,
)
from .qubit_teleport import (
    QubitState,
    bell_state,
    cnot_via_cz,
    cz_via_two_telegates,
    parity_filter,
    pbm,
    telegate_t,
    z_correction,
)
from .mb_bridge import (
    MBEncoding,
    mb_decode,
    mb_encode,
    verify_aux_state_equivalence,
    verify_ecnot_equals_tcnot,
    verify_f_equals_tprime,
    verify_hwp_mb,
    verify_pbs_mb,
)
from .verify import Report
from .workbench_cli import CircuitFile, main, parse_circuit, run_circuit

__version__ = "0.1.0"
