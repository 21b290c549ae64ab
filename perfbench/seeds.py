"""Per-input seeds derived from the workload seed."""

import random

NAMES = ("corona", "perturb", "report", "mixed_nodes")


def sub_seeds(seed: int) -> dict[str, int]:
    """Independent seeds for every stochastic input, drawn in a fixed order."""
    rng = random.Random(seed)
    return {name: rng.randrange(2**31) for name in NAMES}
