"""Deterministic closed-loop simulator of dual-expert helipad perception
and visual-servo descent, with a randomized paired trial campaign and
nonparametric evaluation of touchdown error."""

from .config import CampaignSpec, ConfigError, build_campaign, default_config, load_config
from .dynamics import DynamicsParams, step
from .experts import (
    Detection,
    ExpertId,
    ExpertProfile,
    default_far_profile,
    default_near_profile,
    detect,
    detection_probability,
    noise_rows,
)
from .gating import GateOutput, GateState, l1_center_distance, select_expert
from .geometry import (
    BoundingBox,
    CameraModel,
    HelipadSpec,
    VehicleState,
    apparent_width,
    clamp_box,
    project_helipad,
)
from .harness import (
    RECORD_COLUMNS,
    SELECTION_LABELS,
    TRAJECTORY_COLUMNS,
    CampaignResult,
    DetectionLogError,
    Mode,
    Scenario,
    TerminationReason,
    TrialConfig,
    TrialResult,
    TrialRun,
    replay_detect,
    run_campaign,
    run_trial,
    sample_initial,
)
from .reporting import (
    campaign_summary,
    read_detection_log,
    write_campaign_outputs,
    write_detection_log,
)
from .servo import (
    ControllerGains,
    ErrorSignals,
    VelocityCommand,
    area_ref_for_altitude,
    compute_command,
    compute_errors,
)
from .stats import (
    ErrorSummary,
    ModeComparison,
    WilcoxonResult,
    compare_modes,
    format_comparison_table,
    summarize,
    wilcoxon_signed_rank,
)

__version__ = "0.1.0"
