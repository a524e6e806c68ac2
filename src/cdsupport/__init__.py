"""Evidence p-values from confidence-distribution supports."""

from .cd import (
    ConfidenceDistribution,
    make_asymptotic_normal_cd,
    make_bootstrap_cd,
    make_student_t_cd,
    sample_cd,
)
from .depth import (
    BootstrapCloud,
    MultiPValue,
    bootstrap_cloud,
    p_multi,
    p_multi_max,
    simplicial_depth,
    simplicial_depth_brute,
)
from .regions import (
    Halfspace,
    Interval,
    NullRegion,
    PointSet,
    QuadrantComplement,
    Rectangle,
    RegionND,
    format_region,
    parse_region,
)
from .simulate import (
    PART2_COV,
    ExperimentSpec,
    UniformityReport,
    ks_uniform,
    run_experiment,
    write_qq_csv,
)
from .support import (
    SupportReport,
    bioeq_cd,
    bioeq_p,
    bioeq_tails,
    direct_support,
    p_value,
)

__version__ = "0.1.0"
