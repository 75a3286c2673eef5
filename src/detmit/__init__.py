"""detmit: defense-by-detection vs defense-by-mitigation game simulations.

Two interactive defense games over generative tasks — flag bad batches
(detection) or answer them safely (mitigation) — with the generic reductions
between them, plus two task constructions that separate the games: a token
ladder where mitigation needs more samples, and a sequential hash chain where
mitigation needs more per-query work.  All cryptographic primitives are
simulated desk-scale, with real metering of samples and steps.
"""

from .classify import (
    DetectorFromMitigator,
    LazyMitigator,
    MitigatorFromDetector,
    ToyAttacker,
    ToyClassificationInstance,
    ToyDetector,
    ToyMitigator,
    ToyTrainer,
    derived_flag,
    implication_holds,
    implication_premise,
    make_toy_instance,
)
from .core import (
    AbortTrial,
    BudgetExceededError,
    GameParams,
    HarnessFault,
    NatureChallenger,
    RateEstimate,
    ResourceBudget,
    SampleOracle,
    Transcript,
    TrialCtx,
    completeness_violation,
    empirical_err,
    estimate_model_err,
    hamming,
    run_dbd_trial,
    run_dbm_trial,
    soundness_violation,
    wilson_interval,
)
from .crypto import (
    CountProver,
    FheSystem,
    IvcKeys,
    ProofChainError,
    SnarkParams,
    StepMeter,
    StepsExhausted,
    WitnessError,
    ivc_update,
    ivc_verify,
    npl_step,
    sig_keygen,
    sig_sign_zero,
    sig_verify,
    snark_extract,
    snark_prove,
    snark_verify,
)
from .drbg import HashDrbg, derive_trial_seed
from .payloads import (
    BOTTOM,
    ClearPayload,
    EncPayload,
    TimePayload,
    bottom,
    decode_payload,
    encode_payload,
)
from .sampleagents import (
    DataModel,
    LadderTrainer,
    ProofExtendingMitigator,
    SelfIterationAttacker,
)
from .sampletask import (
    DataTaskInstance,
    LevelLaw,
    make_data_instance,
    next_level,
    payload_form,
)
from .timetask import (
    ChainClimbingAttacker,
    ChainExtendingMitigator,
    TimeTaskInstance,
    TimeTrainer,
    audit_conservation,
    audit_sequential_reach,
    make_time_instance,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
