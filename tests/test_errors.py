from osnids import errors


def test_exit_code_taxonomy():
    assert errors.ConfigError("x").exit_code == 1
    for cls in (
        errors.UnreadableFile,
        errors.BadMagic,
        errors.TruncatedHeader,
        errors.IoFailure,
        errors.VersionUnsupported,
        errors.CountMismatch,
        errors.ChecksumMismatch,
        errors.ManifestInvalid,
        errors.BadEncoding,
    ):
        assert cls("x").exit_code == 2, cls
    for cls in (
        errors.EmptyFlowTable,
        errors.NoAttackSamples,
        errors.WrongLength,
        errors.ValueOutOfRange,
        errors.PerplexityTooLarge,
        errors.TooFewPoints,
        errors.SingleCluster,
        errors.InvalidRange,
        errors.LengthMismatch,
        errors.UnknownHeldoutClass,
        errors.NoKnownAttacks,
        errors.EmptyBenign,
        errors.DegenerateClasses,
        errors.MissingCluster,
        errors.GeometryMismatch,
        errors.UntrainedEnsemble,
        errors.SingleClassLabels,
        errors.WrongArity,
        errors.UntrainedModel,
        errors.EmptyDataset,
        errors.SeparationUnsatisfiable,
    ):
        assert cls("x").exit_code == 3, cls
    assert errors.NonFiniteLoss("x").exit_code == 4


def test_all_are_pipeline_errors():
    for name in dir(errors):
        obj = getattr(errors, name)
        if isinstance(obj, type) and issubclass(obj, Exception) and obj is not errors.PipelineError:
            assert issubclass(obj, errors.PipelineError), name
