"""Model-robust QB evaluation and construction of two-level screening designs."""

from .criteria import (
    Es2Result,
    Prior,
    PriorSums,
    XiWeights,
    as_efficiency,
    es2,
    prior_sums,
    qb_from_word_counts,
    qb_general,
    ue_s2,
    xi_weights,
)
from .design import (
    BalanceProfile,
    Design,
    InfoMatrix,
    ModelOrder,
    balance_profile,
    format_design,
    information_matrix,
    load_design,
    parse_design,
    random_design,
    save_design,
)
from .optimizer import (
    OptResult,
    OptimizerConfig,
    coordinate_exchange,
    multi_restart,
    qb_delta,
)
from .projection import ProjectionReport, ProjectionRow, projection_report
from .theory import (
    BalanceIntervals,
    PatternReport,
    balance_intervals,
    qb_block_value,
    verify_block_pattern,
)
from .wordcounts import WordCounts, j_characteristic, word_counts

__version__ = "0.1.0"

__all__ = [
    "BalanceIntervals",
    "BalanceProfile",
    "Design",
    "Es2Result",
    "InfoMatrix",
    "ModelOrder",
    "OptResult",
    "OptimizerConfig",
    "PatternReport",
    "Prior",
    "PriorSums",
    "ProjectionReport",
    "ProjectionRow",
    "WordCounts",
    "XiWeights",
    "as_efficiency",
    "balance_intervals",
    "balance_profile",
    "coordinate_exchange",
    "es2",
    "format_design",
    "information_matrix",
    "j_characteristic",
    "load_design",
    "multi_restart",
    "parse_design",
    "prior_sums",
    "projection_report",
    "qb_block_value",
    "qb_delta",
    "qb_from_word_counts",
    "qb_general",
    "random_design",
    "save_design",
    "ue_s2",
    "verify_block_pattern",
    "word_counts",
    "xi_weights",
]
