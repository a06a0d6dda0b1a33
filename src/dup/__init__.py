"""Deep-understanding prompting pipeline for reasoning benchmarks.

The package runs a three-stage prompting method (reveal the core
question, extract the problem-solving information, then solve with both
as a hint) plus single-prompt and chain-of-thought baselines over
benchmark datasets, grades the answers, and classifies failures.
"""

from .consistency import Vote, aggregate
from .datasets import (
    DATASET_SPECS,
    DatasetSpec,
    FieldMap,
    Problem,
    load_dataset,
    load_from_manifest,
    load_manifest,
)
from .error_analysis import (
    ErrorCategory,
    ErrorReport,
    classify_failure,
    parse_category,
    sample_and_analyze,
)
from .exceptions import (
    AuthenticationError,
    DatasetFormatError,
    DupError,
    GatewayError,
    InvalidInputError,
    MalformedResponseError,
    RetriesExhaustedError,
    RunComparisonError,
    TransientBackendError,
)
from .extraction import extract_answer
from .gateway import (
    ChatMessage,
    ChatRequest,
    ChatResponse,
    Gateway,
    HttpBackend,
    MockBackend,
    ProviderConfig,
    build_gateway,
    build_messages,
    cache_key,
)
from .grading import GradedResult, NormalizedAnswer, extract_rule_based, grade, normalize
from .prompts import (
    AnswerType,
    MethodVariant,
    render_core_question_prompt,
    render_cot_prompt,
    render_dup_s_prompt,
    render_error_analysis_prompt,
    render_final_answer_prompt,
    render_info_extraction_prompt,
    render_last_letter_prompt,
)
from .reporting import DeltaTable, Report, compare_runs, load_report, recount
from .runner import (
    RunConfig,
    StageConfig,
    Transcript,
    build_run_gateway,
    run_experiment,
    run_problem,
)

__version__ = "0.1.0"

__all__ = [
    "AnswerType",
    "AuthenticationError",
    "ChatMessage",
    "ChatRequest",
    "ChatResponse",
    "DATASET_SPECS",
    "DatasetFormatError",
    "DatasetSpec",
    "DeltaTable",
    "DupError",
    "ErrorCategory",
    "ErrorReport",
    "FieldMap",
    "Gateway",
    "GatewayError",
    "GradedResult",
    "HttpBackend",
    "InvalidInputError",
    "MalformedResponseError",
    "MethodVariant",
    "MockBackend",
    "NormalizedAnswer",
    "Problem",
    "ProviderConfig",
    "Report",
    "RetriesExhaustedError",
    "RunComparisonError",
    "RunConfig",
    "StageConfig",
    "Transcript",
    "TransientBackendError",
    "Vote",
    "aggregate",
    "build_gateway",
    "build_messages",
    "build_run_gateway",
    "cache_key",
    "classify_failure",
    "compare_runs",
    "extract_answer",
    "extract_rule_based",
    "grade",
    "load_dataset",
    "load_from_manifest",
    "load_manifest",
    "load_report",
    "normalize",
    "parse_category",
    "recount",
    "render_core_question_prompt",
    "render_cot_prompt",
    "render_dup_s_prompt",
    "render_error_analysis_prompt",
    "render_final_answer_prompt",
    "render_info_extraction_prompt",
    "render_last_letter_prompt",
    "run_experiment",
    "run_problem",
    "sample_and_analyze",
]
