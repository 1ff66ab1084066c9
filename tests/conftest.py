import numpy as np

#: Minimum adjacent relative gap enforced when generating random rate sets;
#: below this the signed weights blow up and cancellation dominates.
MIN_RELATIVE_GAP = 0.05


#: Draws ``random_rates`` makes before it gives up.
MAX_DRAWS = 10_000


def random_rates(rng: np.random.Generator, n: int, low=1e-3, high=1e3):
    """Log-uniform distinct rates with an enforced adjacent relative gap."""
    for _ in range(MAX_DRAWS):
        rates = np.sort(np.exp(rng.uniform(np.log(low), np.log(high), n)))
        gaps = (rates[1:] - rates[:-1]) / rates[1:]
        if np.all(gaps >= MIN_RELATIVE_GAP):
            return [float(r) for r in rates]
    raise RuntimeError(
        f"no n={n} rates in [{low}, {high}] with adjacent gaps of at least"
        f" {MIN_RELATIVE_GAP} in {MAX_DRAWS} draws"
    )


def random_scales(rng: np.random.Generator, n: int, spread=1e3):
    """Distinct positive scales with spread up to ``spread``."""
    return [1.0 / r for r in random_rates(rng, n, low=1.0, high=spread)]
