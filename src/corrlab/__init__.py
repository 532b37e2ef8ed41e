"""Correlation measures of finite ±1 sequences: exact and sampled computation,
minimum-value certificates, brute-force oracles, and Monte Carlo checks."""

from .errors import ParseError, ResourceLimitError
from .seqcore import (
    BinarySequence,
    SeedSpec,
    all_ones,
    all_sequences_matrix,
    alternating,
    enumerate_all,
    random_sequence,
    read_sequence,
    read_sequence_lines,
    write_sequence,
    write_sequence_lines,
)
from .measures import (
    CorrelationResult,
    Normalization,
    ShiftTuple,
    binomial,
    correlation_measure_exact,
    correlation_measure_sampled,
    correlation_sum,
    exact_values_batch,
    log_binomial,
    normalization,
    normalized_ratio,
    product_sequence,
    range_of_walk,
    range_values_batch,
    replay_witness,
)
from .bounds import (
    BoundReport,
    VectorFamily,
    WelchBound,
    certify_theoremC,
    certify_theoremC_all,
    certify_theorem_max,
    certify_theorem_max_all,
    double_factorial_odd,
    f_ratio,
    max_offdiag_scalar,
    theoremC_construction,
    welch_bound,
)
from .oracles import (
    EvenTuple,
    MomentCheck,
    count_constrained_even,
    count_even_tuples,
    evenness_degree,
    exact_expected_measure,
    exact_moment,
    exact_tail,
    naive_correlation_measure,
    naive_range,
)
from .experiments import (
    ExperimentConfig,
    ExperimentReport,
    StatRow,
    check_concentration,
    check_extension_difference,
    check_range_tail,
    check_theoremA_band,
    check_uniform_upper,
    emit_report,
    estimate_expected_ratio,
    parse_report,
)

__version__ = "0.1.0"
