"""Scenario files: one JSON document binding channel, budget, errors, trials.

Loading then saving is idempotent; CLI flags override individual keys.  The
default scenario is the 10-user, 0-30 MHz reference setup used throughout the
test suite (flat -60 dBm/Hz signal PSD, -140 dBm/Hz noise, 10.7 dB gap,
amplitude aggregate 0.0019 at 300 m).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields, replace

from .channel_model import (
    DEFAULT_K_MEAN_SLOPE,
    DEFAULT_K_SIGMA_LOG,
    ChannelEnsemble,
    ToneGrid,
    WernerParams,
    check_phase_mode,
    load_channel,
    synthesize_channel,
)
from .errors import InvalidParams
from .monte_carlo import TrialConfig
from .precoding import E2_DETERMINISTIC, E2_UNIFORM, PerturbationSpec
from .rate_analysis import LinkBudget

SCENARIO_FORMAT_VERSION = 1

# the Python type of each JSON value a field annotation admits
_JSON_TYPES = {"int": int, "float": (int, float), "str": str, "None": type(None)}


def _fits(value, annotation: str) -> bool:
    """Whether a JSON value fits a field annotated e.g. "int" or "float | None"."""
    kinds = annotation.split(" | ")
    if isinstance(value, bool):
        return False
    if isinstance(value, list):
        return "list[float]" in kinds and all(_fits(v, "float") for v in value)
    return any(isinstance(value, _JSON_TYPES.get(kind, ())) for kind in kinds)


@dataclass
class Scenario:
    """Everything needed to reproduce one experiment.  Each key is checked once, by the
    object that reads it; creation builds them all, so every command refuses every invalid key."""

    # channel: synthesized unless channel_file is set
    channel_file: str | None = None
    alpha: float = 0.0019 / 300.0
    loop_length_m: float = 300.0
    users: int = 10
    k_mean_slope: float = DEFAULT_K_MEAN_SLOPE
    k_sigma_log: float = DEFAULT_K_SIGMA_LOG
    phases: str = "uniform"
    f_start: float = 0.0
    f_end: float = 30e6
    decimation: int = 64
    seed: int = 20080330

    # link budget
    psd_dbm_hz: float | list[float] = -60.0  # one value, or one per user
    noise_dbm_hz: float = -140.0
    gamma_db: float = 10.7

    # perturbation
    d_bits: int = 14
    e2_model: str = E2_DETERMINISTIC
    csi_samples: int | None = None

    # trials
    n_trials: int = 1000

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not _fits(value, f.type):
                raise InvalidParams(f"scenario key {f.name!r} must be {f.type}, got {value!r}")
        check_phase_mode(self.phases)
        self.werner_params()
        budget = self.budget()  # and grid()
        if self.channel_file is None:  # the synthesized channel has ``users`` pairs
            budget.psd_linear(self.users)
        self.trial_config()  # and perturbation()

    # -- construction helpers -------------------------------------------------

    def grid(self) -> ToneGrid:
        return ToneGrid.vdsl_band(self.decimation, self.f_end, self.f_start)

    def werner_params(self) -> WernerParams:
        return WernerParams(
            alpha=self.alpha,
            loop_length_m=self.loop_length_m,
            p=self.users,
            k_mean_slope=self.k_mean_slope,
            k_sigma_log=self.k_sigma_log,
        )

    def ensemble(self) -> ChannelEnsemble:
        if self.channel_file is not None:
            return load_channel(self.channel_file)
        return synthesize_channel(self.werner_params(), self.grid(), self.seed, phases=self.phases)

    def budget(self, grid: ToneGrid | None = None) -> LinkBudget:
        return LinkBudget(
            psd_dbm_hz=self.psd_dbm_hz,
            noise_dbm_hz=self.noise_dbm_hz,
            gamma_db=self.gamma_db,
            grid=grid if grid is not None else self.grid(),
        )

    def perturbation(self) -> PerturbationSpec:
        return PerturbationSpec(
            d_bits=self.d_bits,
            e2_model=self.e2_model,
            e1_samples=self.csi_samples,
            seed=self.seed,
        )

    def trial_config(self, d_bits: int | None = None, e2_model: str = E2_UNIFORM) -> TrialConfig:
        """Trials draw uniform quantization errors whatever ``self.e2_model``
        (analyze's setting) says."""
        spec = replace(self.perturbation(), e2_model=e2_model)
        return TrialConfig(
            n_trials=self.n_trials,
            spec=spec if d_bits is None else replace(spec, d_bits=d_bits),
        )

    # -- (de)serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        doc = {"format_version": SCENARIO_FORMAT_VERSION}
        doc.update(asdict(self))
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "Scenario":
        doc = dict(doc)
        version = doc.pop("format_version", SCENARIO_FORMAT_VERSION)
        if version != SCENARIO_FORMAT_VERSION:
            raise InvalidParams(f"unsupported scenario format_version {version!r}")
        known = {f.name for f in cls.__dataclass_fields__.values()}  # type: ignore[attr-defined]
        unknown = set(doc) - known
        if unknown:
            raise InvalidParams(f"unknown scenario keys: {sorted(unknown)}")
        return cls(**doc)

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    @staticmethod
    def read(path) -> dict:
        """The JSON object in a scenario file, not yet checked as a scenario."""
        try:
            with open(path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except ValueError as exc:  # bad JSON or bad UTF-8
            raise InvalidParams(f"scenario file is not valid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise InvalidParams("scenario file must hold a JSON object")
        return doc

    @classmethod
    def load(cls, path) -> "Scenario":
        return cls.from_dict(cls.read(path))
