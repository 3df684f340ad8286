"""Exception hierarchy shared across the toolkit.

Every concrete error derives from exactly one category base, and the
category alone decides the CLI exit code: ``ConfigError`` 2, ``DataError``
3, ``TrainingError`` 4.
"""


class DenitlabError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(DenitlabError):
    """The experiment config or a spec built from it is invalid."""


class DataError(DenitlabError):
    """The data, or a request made of it, cannot be used."""


class TrainingError(DenitlabError):
    """A model could not be trained."""


# --- dataset ---------------------------------------------------------------

class MissingColumn(DataError):
    pass


class UnparsableTimestamp(DataError):
    pass


class UnparsableValue(DataError):
    pass


class NonMonotonicTime(DataError):
    pass


class OffGridTimestamp(DataError):
    pass


class FrameTooShort(DataError):
    pass


class InvalidFractions(DataError):
    pass


class ZeroVarianceColumn(DataError):
    pass


class EmptyRanges(DataError):
    pass


class NotAFile(DataError):
    pass


class NotUTF8(DataError):
    pass


# --- preprocess / anomaly --------------------------------------------------

class BadParams(DataError):
    pass


class MaskTouchesBoundary(DataError):
    pass


class NoAdmissibleWindows(DataError):
    pass


# --- models ----------------------------------------------------------------

class DimensionMismatch(TrainingError):
    pass


class InvalidSpec(ConfigError):
    pass


class EmptyWindows(TrainingError):
    pass


class NonFiniteLoss(TrainingError):
    """Training diverged. Carries the partial training log."""

    def __init__(self, message, log=None):
        super().__init__(message)
        self.log = log


class TrainingLossRose(TrainingError):
    """A full-data boosting stage raised the training loss."""


class SpecMismatch(DataError):
    pass


# --- baselines / evaluation ------------------------------------------------

class EmptyTraining(DataError):
    pass


class InsufficientHistory(DataError):
    pass


class LengthMismatch(DataError):
    pass


class NonFinite(DataError):
    pass


class MixedGroups(DataError):
    pass


class EmptyReports(DataError):
    pass


# --- hyperopt / ablation ---------------------------------------------------

class AllTrialsFailed(TrainingError):
    pass


class GuardrailExceeded(DataError):
    pass


class EmptyTable(DataError):
    pass


# --- synthpilot / cli ------------------------------------------------------

class NonFiniteInput(DataError):
    pass


class InvalidConfig(ConfigError):
    pass
