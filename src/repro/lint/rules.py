"""The lint rule catalog.

Three families, grouped like the design-rule checker's ``RCKnnn`` codes:

* ``DET0xx`` — determinism hazards: constructs whose observable result
  depends on hash seeding, filesystem enumeration order, global RNG
  state, wall-clock time, or the BLAS thread count.  These are the
  static counterpart of the repo's byte-identical-tables guarantee;
* ``API0xx`` — API hygiene: mutable defaults, exception handlers that
  swallow everything, unannotated public functions;
* ``PRG0xx`` — pragma hygiene: suppression comments must carry a
  justification and name known rules.

The registry is the single source of truth for codes, default
severities, and the SARIF rule descriptors.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..analysis.diagnostics import Severity
from ..errors import CheckError

__all__ = ["LintRule", "registered_lint_rules", "rule_by_code"]


@dataclass(frozen=True, slots=True)
class LintRule:
    """Descriptor of one lint rule (code, name, default severity)."""

    code: str
    name: str
    description: str
    default_severity: Severity


_REGISTRY: tuple[LintRule, ...] = (
    LintRule(
        "DET001",
        "set-iteration",
        "Iteration over a set/frozenset (or an unsorted union of dict "
        "keys) whose order depends on PYTHONHASHSEED; wrap the iterable "
        "in sorted().",
        Severity.ERROR,
    ),
    LintRule(
        "DET002",
        "unsorted-listing",
        "os.listdir/glob.glob/Path.iterdir/Path.glob enumerate the "
        "filesystem in platform order; wrap the call in sorted().",
        Severity.ERROR,
    ),
    LintRule(
        "DET003",
        "global-rng",
        "Call into the process-global random/numpy.random state; use a "
        "seeded random.Random or numpy.random.default_rng instance.",
        Severity.ERROR,
    ),
    LintRule(
        "DET004",
        "wall-clock",
        "time.time()/datetime.now() reads the wall clock; derive result "
        "data from inputs, or use time.monotonic/perf_counter for "
        "latency metrics.",
        Severity.ERROR,
    ),
    LintRule(
        "DET005",
        "unordered-reduction",
        "Float reduction (sum/min/max/math.fsum) over a set: the "
        "accumulation order — hence the rounding — follows hash order; "
        "reduce over sorted() elements.",
        Severity.ERROR,
    ),
    LintRule(
        "DET006",
        "parallel-kernel-global-mutation",
        "A function registered as a parallel chunk kernel "
        "(@chunk_kernel) mutates module-level state; kernels run "
        "concurrently on pool threads, so such writes race and make "
        "results depend on scheduling.  Kernels must write only "
        "through their declared output views.",
        Severity.ERROR,
    ),
    LintRule(
        "DET007",
        "blas-reduction",
        "numpy.dot/vdot/inner, numpy.linalg.norm and the "
        "scipy.sparse.linalg Krylov solvers reduce through BLAS, whose "
        "summation order (hence rounding) follows the host's BLAS "
        "thread count; use a fixed-order reduction such as "
        "float(np.add.reduce(u * v)).",
        Severity.ERROR,
    ),
    LintRule(
        "API001",
        "mutable-default",
        "Mutable default argument (list/dict/set literal or call) is "
        "shared across calls; default to None and build inside.",
        Severity.ERROR,
    ),
    LintRule(
        "API002",
        "swallowed-exception",
        "Bare except, or except Exception/BaseException whose handler "
        "never re-raises; narrow the exception types or re-raise after "
        "annotating.",
        Severity.ERROR,
    ),
    LintRule(
        "API003",
        "missing-annotations",
        "Public function without complete parameter and return "
        "annotations.",
        Severity.WARNING,
    ),
    LintRule(
        "PRG001",
        "unjustified-pragma",
        "lint-disable pragma without a justification; append "
        "' -- <reason>'.",
        Severity.ERROR,
    ),
    LintRule(
        "PRG002",
        "unknown-pragma-code",
        "lint-disable pragma names a rule code the linter does not "
        "define.",
        Severity.ERROR,
    ),
)

_BY_CODE = {rule.code: rule for rule in _REGISTRY}


def registered_lint_rules() -> tuple[LintRule, ...]:
    """Every rule, in catalog order (stable across runs)."""
    return _REGISTRY


def rule_by_code(code: str) -> LintRule:
    """Look a rule up by code; unknown codes raise :class:`CheckError`."""
    try:
        return _BY_CODE[code]
    except KeyError:
        known = ", ".join(sorted(_BY_CODE))
        raise CheckError(
            f"unknown lint rule code {code!r}; known: {known}"
        ) from None


def is_known_code(code: str) -> bool:
    return code in _BY_CODE
