"""Scene-stream analytics for open-surgery detection streams."""

from .errors import DataWarning, InvariantError, SceneStreamError, StreamFormatError
from .streams import (
    ACTIONS,
    ACTION_LABELS,
    BACKGROUND,
    CATEGORIES,
    Detection,
    FrameRecord,
    HAND,
    HandKeypoints,
    TOOL_CLASSES,
    VideoStream,
    box,
    hand_size,
    iou,
    parse_stream,
    write_stream,
)

__version__ = "0.1.0"
