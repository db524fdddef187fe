"""String-keyed detector registry, in the style of the experiment
registry (``experiments/registry.py``).

Plugins self-register at import time via :func:`register_detector`;
consumers resolve them by name — ``create_detector()`` with no
arguments honours the ``REPRO_DETECTOR`` knob
(:attr:`~repro.config.ReproConfig.detector`), so the framework and the
fleet select detectors by configuration instead of importing
``analysis.euclidean`` directly.
"""

from __future__ import annotations

from repro.detectors.base import Detector, DetectorInfo
from repro.errors import AnalysisError

#: name -> detector class, sorted views exposed via the helpers below.
REGISTRY: dict[str, type] = {}


def register_detector(cls: type) -> type:
    """Class decorator: add *cls* to the registry under its info name."""
    info = getattr(cls, "info", None)
    if not isinstance(info, DetectorInfo):
        raise AnalysisError(
            f"{cls.__name__} must define a DetectorInfo class attribute"
        )
    if info.name in REGISTRY:
        raise AnalysisError(f"duplicate detector name {info.name!r}")
    REGISTRY[info.name] = cls
    return cls


def all_detector_infos() -> tuple[DetectorInfo, ...]:
    """Registry cards of every detector, sorted by name."""
    return tuple(REGISTRY[name].info for name in sorted(REGISTRY))


def get_detector_class(name: str) -> type:
    """Resolve a registered class, with a helpful unknown-name error."""
    try:
        return REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(REGISTRY)) or "<none>"
        raise AnalysisError(
            f"unknown detector {name!r}; registered: {known}"
        ) from None


def create_detector(name: str | None = None, **kwargs) -> Detector:
    """Instantiate a detector by name.

    *name* defaults to the active configuration's ``detector`` field
    (the ``REPRO_DETECTOR`` environment knob).  Keyword arguments are
    forwarded to the plugin constructor.
    """
    if name is None:
        from repro.config import active_config

        name = active_config().detector
    return get_detector_class(name)(**kwargs)


def detector_from_state(name: str, state: dict) -> Detector:
    """Rebuild a fitted detector of the named class from its state."""
    return get_detector_class(name).from_state(state)
