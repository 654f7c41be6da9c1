"""Twin-type MDS distributed storage: exact encoding, repair, and secrecy analysis."""

from .bounds import (
    BoundParams,
    BoundRow,
    capacity_bound,
    comparison_series,
    mbr_file_size,
    mbr_point,
    msr_file_size,
    msr_point,
    secrecy_bound_pawar,
    secure_mbr_size,
    secure_msr_size,
    series_to_csv,
    twin_file_size,
    twin_secure_size,
)
from .eavesdrop import (
    EavesdropperSpec,
    Observation,
    brute_force_mi,
    default_repair_plans,
    eavesdrop_report,
    independent_symbol_count,
    leakage,
    leakage_by_elimination,
    observe,
    revealed_symbols,
)
from .field import (
    FieldMatrix,
    PrimeField,
    in_row_space,
    is_prime,
    rank,
)
from .framework import (
    EncodingVector,
    MessageMatrix,
    NodeContent,
    TwinConfig,
    TwinSystem,
    build_message_matrix,
    default_helpers,
    deploy,
    encode_system,
    fail_node,
    helper_share,
    reconstruct,
    repair,
)
from .mds import (
    MdsCode,
    code_from_json,
    code_to_json,
    encode_row,
    erasure_decode,
    find_singular_minor,
    load_explicit,
    make_systematic,
    make_vandermonde,
)
from .secure import (
    GuaranteeReason,
    SecrecyGuarantee,
    SecureLayout,
    guaranteed_secure_set,
    make_secure_layout,
    recover_payload,
    secure_capacity_twin,
)
from .sim import (
    Deploy,
    Eavesdrop,
    EventLog,
    Fail,
    Reconstruct,
    Repair,
    Scenario,
    SweepResult,
    load_scenario,
    run,
    scenario_from_json,
    sweep_eavesdroppers,
)

__version__ = "0.1.0"
