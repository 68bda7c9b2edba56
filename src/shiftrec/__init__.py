"""Recurrence witnesses, exact cylinder measures, and randomness-test
certificates on shift spaces, in one and k dimensions, plus return-time
search for circle rotations."""

from .bitseq import (
    EMPTY_WORD,
    EventuallyPeriodicSource,
    ExplicitPrefixSource,
    FileSource,
    PseudorandomSource,
    SequenceSource,
    Word,
    shift,
)
from .certificates import (
    TestCertificate,
    certificates_from_json,
    new_certificate,
    verify_certificate,
)
from .dyadic import D_ONE, D_ZERO, Dyadic, half_power
from .errors import (
    BoundViolationError,
    BudgetExceededError,
    DepthExhaustedError,
    InapplicableBoundError,
    InsufficientDataError,
    NoCertificateError,
    PrecisionError,
    ShiftrecError,
)
from .kurtz import KurtzSchedule, kurtz_capture, kurtz_stage_set
from .measure import (
    ClopenSet,
    CubeSet,
    StagedCoEnumeration,
    is_prefix_free,
    measure_open,
    prefix_reduce,
    sorted_words,
    split_tail,
)
from .mltest import (
    MLConstruction,
    MLRunResult,
    ml_enumerate_G,
    ml_escape_level,
    ml_refined_levels,
    ml_run,
    ml_test_refinement,
)
from .multidim import (
    ArraySample,
    ExplicitGridSource,
    GridMLConstruction,
    GridSource,
    SeededGridSource,
    array_measure_open,
    arrays_prefix_free,
    face_shift,
    grid_find_witness,
    grid_kurtz_stage_set,
)
from .recurrence import (
    BatchSummary,
    BlockCheck,
    Pi01Target,
    RecurrenceQuery,
    WitnessReport,
    batch_statistics,
    find_witness,
    is_witness,
)
from .rotation import (
    ReturnReport,
    RotationSystem,
    cf_accelerated_return,
    dirichlet_ceiling,
    find_multi_return,
    verify_return,
)
from .schnorr import (
    SchnorrSchedule,
    schnorr_error_set,
    schnorr_schedule,
    schnorr_union_bound,
)

__version__ = "0.1.0"
