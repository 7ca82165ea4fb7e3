"""Online aggregation of probabilistic forecasts (CDFs) under the CRPS
loss: substitution and weighted-average rules, confidence-weighted
specialized experts, fixed-share mixing, and regret tracking against
time-independent bounds."""

from .aggregation import (
    SubstitutionError,
    aa_learning_rate,
    combine_wa,
    normalized_weights,
    substitute_crps_aa,
    substitute_vector_aa,
    wa_learning_rate,
)
from .data import (
    CsvSchema,
    LoadRecord,
    MixtureSchedule,
    default_generators,
    load_csv,
    rotating_leader_schedule,
    smooth_crossfade_schedule,
    split_train_test,
    synth_stream,
)
from .experts import (
    ConditioningError,
    DegenerateFit,
    Gmm2D,
    TriangularExpert,
    fit_gmm_ems,
    triangular_cdf,
)
from .game import (
    GameConfig,
    GameLog,
    replay,
    run_square_loss_game,
    telescoping_gap,
)
from .grids import (
    GridCDF,
    GridDomain,
    crps,
    crps_grid_profile,
    heaviside_cdf,
    quantile,
)
from .roster import LoadExpert, build_load_roster, roster_confidences

__version__ = "0.1.0"
