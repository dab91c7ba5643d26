"""profilebench: simulate profile-driven gameplay, featurize it, and classify it.

The pipeline runs gen -> featurize -> balance -> split -> train -> eval ->
report, either through the ``pbench`` CLI or programmatically via
:mod:`profilebench.pipeline`.
"""

__version__ = "0.1.0"
