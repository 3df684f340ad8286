"""Exception hierarchy shared across the toolkit."""


class DenitlabError(Exception):
    """Base class for all toolkit errors."""


# --- dataset ---------------------------------------------------------------

class MissingColumn(DenitlabError):
    pass


class UnparsableTimestamp(DenitlabError):
    pass


class UnparsableValue(DenitlabError):
    pass


class NonMonotonicTime(DenitlabError):
    pass


class OffGridTimestamp(DenitlabError):
    pass


class FrameTooShort(DenitlabError):
    pass


class InvalidFractions(DenitlabError):
    pass


class ZeroVarianceColumn(DenitlabError):
    pass


class EmptyRanges(DenitlabError):
    pass


# --- preprocess / anomaly --------------------------------------------------

class BadParams(DenitlabError):
    pass


class MaskTouchesBoundary(DenitlabError):
    pass


class NoAdmissibleWindows(DenitlabError):
    pass


# --- models ----------------------------------------------------------------

class DimensionMismatch(DenitlabError):
    pass


class InvalidSpec(DenitlabError):
    pass


class EmptyWindows(DenitlabError):
    pass


class NonFiniteLoss(DenitlabError):
    """Training diverged. Carries the partial training log."""

    def __init__(self, message, log=None):
        super().__init__(message)
        self.log = log


class TrainingLossRose(DenitlabError):
    """A full-data boosting stage raised the training loss."""


class SpecMismatch(DenitlabError):
    pass


class WindowCrossesGap(DenitlabError):
    pass


# --- baselines / evaluation ------------------------------------------------

class EmptyTraining(DenitlabError):
    pass


class InsufficientHistory(DenitlabError):
    pass


class LengthMismatch(DenitlabError):
    pass


class NonFinite(DenitlabError):
    pass


class MixedGroups(DenitlabError):
    pass


class EmptyReports(DenitlabError):
    pass


# --- hyperopt / ablation ---------------------------------------------------

class AllTrialsFailed(DenitlabError):
    pass


class GuardrailExceeded(DenitlabError):
    pass


class EmptyTable(DenitlabError):
    pass


# --- synthpilot / cli ------------------------------------------------------

class NonFiniteInput(DenitlabError):
    pass


class InvalidConfig(DenitlabError):
    pass
