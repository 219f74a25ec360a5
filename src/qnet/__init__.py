"""qnet: a quantum-circuit netlist interpreter over term-list states.

Circuits are linear lists of gate applications (X, Z, H, I, CN, M) over
a declared number of qubits.  A state is the dense form of the paper's
term list: one complex coefficient per basis vector, indexed by the
basis vector's bit configuration read as a binary number.  Two scalar backends
are provided: exact arithmetic over Q[sqrt(2)] (with exact sign tests
and deferred normalization when a root leaves the field) and an
approximate rational backend built on a bisection square root.
"""

from .errors import (
    EntangledError,
    NotDeterministicError,
    NotRepresentableError,
    ParseError,
    QnetError,
    RandomStreamExhausted,
)
from .gates import gate_CN, gate_H, gate_I, gate_M, gate_X, gate_Z
from .interpreter import (
    Circuit,
    Gate,
    RandomStream,
    TraceEvent,
    count_measurements,
    parse_circuit,
    run_circuit,
    run_circuit_traced,
)
from .qstate import (
    QState,
    Term,
    format_state,
    get_deterministic_qubit,
    make_qubit,
    narrow_to_qubit,
    norm_sq,
    normalize,
    parse_state,
    sort_and_merge,
    tensor_product,
    zero_qstate,
)
from .scalar import (
    EXACT,
    ApproxBackend,
    CScalar,
    ExactBackend,
    QExt,
    approx_of_qext,
    iter_sqrt,
    parse_cscalar,
    parse_qext,
    parse_rational,
    to_backend,
)
from .teleport import (
    AliceResult,
    TeleportReport,
    teleport_alice,
    teleport_bob,
    teleport_protocol,
    verify_teleportation,
)

__version__ = "0.1.0"

__all__ = [
    "ApproxBackend",
    "AliceResult",
    "CScalar",
    "Circuit",
    "EXACT",
    "EntangledError",
    "ExactBackend",
    "Gate",
    "NotDeterministicError",
    "NotRepresentableError",
    "ParseError",
    "QExt",
    "QState",
    "QnetError",
    "RandomStream",
    "RandomStreamExhausted",
    "TeleportReport",
    "Term",
    "TraceEvent",
    "approx_of_qext",
    "count_measurements",
    "format_state",
    "gate_CN",
    "gate_H",
    "gate_I",
    "gate_M",
    "gate_X",
    "gate_Z",
    "get_deterministic_qubit",
    "iter_sqrt",
    "make_qubit",
    "narrow_to_qubit",
    "norm_sq",
    "normalize",
    "parse_circuit",
    "parse_cscalar",
    "parse_qext",
    "parse_rational",
    "parse_state",
    "run_circuit",
    "run_circuit_traced",
    "sort_and_merge",
    "teleport_alice",
    "teleport_bob",
    "teleport_protocol",
    "tensor_product",
    "to_backend",
    "verify_teleportation",
    "zero_qstate",
]
