"""Deep-understanding prompting pipeline for reasoning benchmarks.

The package runs a three-stage prompting method (reveal the core
question, extract the problem-solving information, then solve with both
as a hint) plus single-prompt and chain-of-thought baselines over
benchmark datasets, grades the answers, and classifies failures.

The package exports what a library run needs; everything else is imported
from the module that defines it (`dup.prompts`, `dup.grading`, ...), so
`import dup` loads only the modules a run uses.
"""

from .runner import RunConfig, build_run_gateway, run_experiment

__version__ = "0.1.0"

__all__ = ["RunConfig", "build_run_gateway", "run_experiment"]
