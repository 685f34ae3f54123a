"""Exception types for the pipeline, grouped by CLI exit category.

Exit codes: 1 usage/config, 2 I/O and on-disk format, 3 data validation,
4 training failure.
"""


class PipelineError(Exception):
    exit_code = 3


class ConfigError(PipelineError):
    """Bad or incomplete configuration; message names the offending key."""

    exit_code = 1


# --- I/O and file-format errors (exit 2) ---


class IoError(PipelineError):
    exit_code = 2


class UnreadableFile(IoError):
    pass


class BadMagic(IoError):
    pass


class TruncatedHeader(IoError):
    pass


class IoFailure(IoError):
    pass


class VersionUnsupported(IoError):
    pass


class CountMismatch(IoError):
    pass


class ChecksumMismatch(IoError):
    pass


class ManifestInvalid(IoError):
    pass


class BadEncoding(IoError):
    pass


# --- data validation errors (exit 3) ---


class EmptyFlowTable(PipelineError):
    pass


class NoAttackSamples(PipelineError):
    pass


class WrongLength(PipelineError):
    pass


class ValueOutOfRange(PipelineError):
    pass


class PerplexityTooLarge(PipelineError):
    pass


class NonFiniteInput(PipelineError):
    pass


class TooFewPoints(PipelineError):
    pass


class SingleCluster(PipelineError):
    pass


class InvalidRange(PipelineError):
    pass


class LengthMismatch(PipelineError):
    pass


class NonBenignSample(PipelineError):
    pass


class UnknownHeldoutClass(PipelineError):
    pass


class NoKnownAttacks(PipelineError):
    pass


class EmptyBenign(PipelineError):
    pass


class DegenerateClasses(PipelineError):
    pass


class MissingCluster(PipelineError):
    pass


class GeometryMismatch(PipelineError):
    pass


class UntrainedEnsemble(PipelineError):
    pass


class SingleClassLabels(PipelineError):
    pass


class WrongArity(PipelineError):
    pass


class UntrainedModel(PipelineError):
    pass


class EmptyDataset(PipelineError):
    pass


class SeparationUnsatisfiable(PipelineError):
    pass


# --- training failures (exit 4) ---


class TrainingError(PipelineError):
    exit_code = 4


class NonFiniteLoss(TrainingError):
    pass
