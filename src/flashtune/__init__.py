"""Find high-performing software configurations with few measurements.

The core loop measures a small random sample, fits one regression tree per
objective, and repeatedly measures the candidate the tree ranks best; the
rest of the package provides the prior-work baselines, quality indicators,
statistical ranking, and experiment harness needed to compare methods fairly.
"""

from .baselines import (
    EpalParams,
    LivesParams,
    epal,
    progressive_sampling,
    random_search,
    rank_based,
)
from .cart import CartParams, Leaf, Split, TreeNode, dump_tree, fit, predict_batch
from .flash import FlashParams, bazza_select, flash_multi, flash_single
from .gp import GaussianProcess, gp_fit, gp_predict_batch
from .harness import (
    ExperimentSpec,
    MethodSpec,
    MethodResult,
    QualityReport,
    emit_plot_data,
    render_report,
    run_experiment,
)
from .metrics import (
    FrontComparison,
    best_rows,
    front_comparison,
    front_quality,
    gd,
    igd,
    mmre,
    mu_rd,
    pareto_front,
    rank_difference,
)
from .runs import OptimizationRun, write_trace_csv
from .space import (
    BOOLEAN,
    INTEGER,
    MAXIMIZE,
    MINIMIZE,
    CommandOracle,
    Dataset,
    DatasetError,
    MeasureError,
    ObjectiveSchema,
    OptionSchema,
    Pool,
    RowError,
    SchemaError,
    SplitError,
    TableOracle,
    load_dataset,
    save_dataset,
    split,
)
from .stats import SkParams, Treatment, a12, bootstrap_significant, quartile_report, scott_knott
from .synth import KINDS, generate_synthetic

__all__ = [name for name in dir() if not name.startswith("_")]
