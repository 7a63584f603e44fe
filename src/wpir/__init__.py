"""Weakly-private information retrieval from MDS-coded storage.

Builds [N, K] Reed-Solomon storage, runs the zyqt/ztsl/olr query
schemes over it, computes exact maximal-leakage/download trade-offs,
and verifies perfect retrievability over a binary wire protocol.
"""
from .fields import (
    FieldElement,
    FieldMatrix,
    PrimeField,
    is_prime,
    smallest_prime_at_least,
    solve_linear,
)
from .leakage import (
    ConditionalQueryTable,
    LeakageValue,
    LinearForm,
    ResourceLimitError,
    build_all_tables,
    build_query_table,
    download_cost_form,
    maxl,
    uniform_pmf,
)
from .mds import MdsCode, check_mds, make_rs_code
from .optimizer import (
    TradeoffPoint,
    brute_force_min_leakage,
    default_grid,
    solve_tradeoff_point,
)
from .protocol import (
    DecodeFailure,
    ProtocolError,
    ServerNode,
    TcpServer,
    run_retrieval,
    simulate_downloads,
    tcp_channel,
    verify_retrievability,
)
from .schemes import (
    SchemeInstance,
    SchemeKind,
    answer,
    answer_length,
    base_query,
    make_scheme,
    time_shared_query,
)
from .storage import EncodedStorage, FileSet, effective_params, encode_storage

__version__ = "0.1.0"

__all__ = [
    "ConditionalQueryTable",
    "DecodeFailure",
    "EncodedStorage",
    "FieldElement",
    "FieldMatrix",
    "FileSet",
    "LeakageValue",
    "LinearForm",
    "MdsCode",
    "PrimeField",
    "ProtocolError",
    "ResourceLimitError",
    "SchemeInstance",
    "SchemeKind",
    "ServerNode",
    "TcpServer",
    "TradeoffPoint",
    "answer",
    "answer_length",
    "base_query",
    "brute_force_min_leakage",
    "build_all_tables",
    "build_query_table",
    "check_mds",
    "default_grid",
    "download_cost_form",
    "effective_params",
    "encode_storage",
    "is_prime",
    "make_rs_code",
    "make_scheme",
    "maxl",
    "run_retrieval",
    "simulate_downloads",
    "smallest_prime_at_least",
    "solve_linear",
    "solve_tradeoff_point",
    "tcp_channel",
    "time_shared_query",
    "uniform_pmf",
    "verify_retrievability",
]
