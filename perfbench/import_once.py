"""Import extremal_poly once under the speed sampler and print the
host's speed relative to the reference over the import (probe.py).

    PYTHONPATH=src python3 perfbench/import_once.py
"""

from probe import Sampler

with Sampler() as sampler:
    import extremal_poly  # noqa: F401

print(sampler.factor(0))
