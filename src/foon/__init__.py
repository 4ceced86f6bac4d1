"""FOON graphs: text-format parsing and task-tree retrieval by search."""

from . import core, parsing, search
from .core import *
from .parsing import *
from .search import *

__version__ = "0.1.0"

__all__ = core.__all__ + parsing.__all__ + search.__all__
