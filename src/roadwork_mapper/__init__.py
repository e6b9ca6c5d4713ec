"""Roadwork site detection, tracking and measurement from camera + LiDAR."""

__version__ = "0.1.0"

from .config import SessionConfig, default_config, load_config
from .engine import ReplayEngine, ReplayResult

__all__ = [
    "ReplayEngine",
    "ReplayResult",
    "SessionConfig",
    "default_config",
    "load_config",
]
