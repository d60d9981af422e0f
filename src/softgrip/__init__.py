"""Toolkit for a slider-crank-driven compliant two-finger gripper:
closed-form finger kinematics, grasp-compensation planning, point-cloud
object sizing, and quasi-static compliant-contact simulation.

Each module lists its exports once, in its ``__all__``.
"""

from . import capacity, errors, geometry, perception, planning, simulate, synthetic
from .capacity import *  # noqa: F403
from .errors import *  # noqa: F403
from .geometry import *  # noqa: F403
from .perception import *  # noqa: F403
from .planning import *  # noqa: F403
from .simulate import *  # noqa: F403
from .synthetic import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    *capacity.__all__, *errors.__all__, *geometry.__all__, *perception.__all__,
    *planning.__all__, *simulate.__all__, *synthetic.__all__, "__version__",
]
