"""Moran measures on the line: spectra, certificates, densities, tilings."""

from .core import (
    Level,
    LevelClass,
    MoranError,
    MoranStructureError,
    MoranSyntaxError,
    MoranSystem,
    ZeroWitness,
    classify_level,
    fourier_tail,
    make_system,
    mask_eval,
    normalize_level,
    parse_system,
    zero_set_contains,
)
from .hadamard import (
    construct_L,
    digit_star,
    is_hadamard,
)
from .spectrum import (
    OrthogonalityReport,
    SpectrumLevel,
    check_orthogonal,
    level_spectrum,
    q_sum_finite,
)
from .certificates import (
    Certificate,
    Verdict,
    certify,
    epsilon_next_level,
    f_eval,
    f_min_points,
    lambda_norm_check,
    tail_constant,
)
from .density import (
    Histogram,
    IntervalUnion,
    density_histogram,
    density_verdict,
    support_cover,
    tiling_defects,
    uniformity_check,
)

__version__ = "0.1.0"
