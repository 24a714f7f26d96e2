"""Print the share of principal_log, branch_log and factorize calls that take the closed form.

The inputs are the benchmark's kinds of U, drawn with ``perfbench.gen``:
Haar SU(3) from the log-haar stream, and each of the four hard families
(near-degenerate, boundary, cos-zero, near-cos-zero) from the
hard-regimes stream, the near-cos-zero family from its fixed stream.
A call takes the closed form where ``factorlog._closed_form_log``,
``factorlog._closed_form_branch`` or ``factorlog._closed_form_factors``
accepts U, as ``principal_log``, ``branch_log`` and ``factorize`` call
them; the rest run the eigen path.  ``principal_log`` counts as closed
where either of its forms accepts, the monomial one or, past its
coefficient gate, the purified projectors; the "projector" column is
the share that takes the latter.  The branch logs take the nonzero
windings in {-1, 0, 1}^3 in turn.  A change that moves inputs onto the
eigen path shows up as a lower share.  The last column is the share of
``factorize`` calls whose ``routes`` are the ``eigen`` route's, read
from the public ``Factorization``: in the near-cos-zero band, and where
the cascade finds no factor.

    python tools/closed_share.py [--n 2000] [--seed 1]
"""

from __future__ import annotations

import argparse
import itertools
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[0:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import gen  # noqa: E402  (numpy only, no su3kit)
from su3kit import factorlog  # noqa: E402
from su3kit.errors import Su3KitError  # noqa: E402
from su3kit.tolerances import DEFAULT_TOL  # noqa: E402


def _inputs(family: str, n: int, seed: int):
    if family == "haar":
        rng = gen.rng_for("log-haar", seed)
        return [gen.haar_su3(rng) for _ in range(n)]
    phases = dict(gen.HARD_FAMILIES)[family]
    rng = gen.fixed_rng("hard-regimes") if family in gen.FIXED_FAMILIES else gen.rng_for(
        "hard-regimes", seed)
    return [gen.from_phases(phases(rng), rng)[1] for _ in range(n)]


_WINDINGS = [k for k in itertools.product((-1, 0, 1), repeat=3) if k != (0, 0, 0)]


def _eigen_route(u) -> bool:
    try:
        return factorlog.factorize(u).routes == ("eigen",) * 3
    except Su3KitError:
        return False


def _projector_log(a, dev) -> bool:
    """Whether principal_log takes a's log over the purified projectors, its monomial form declined."""
    spectrum = factorlog._log_spectrum(a, dev, DEFAULT_TOL)
    if spectrum is None:
        return False
    t, e, theta = spectrum
    return (factorlog._monomial_log(a, t, e, theta) is None
            and factorlog._projector_log(a, e, theta) is not None)


def _taken(u, k) -> tuple[bool, ...]:
    """Whether u takes the closed log, the projector log, the closed branch log k, the closed
    factorize and the eigen route."""
    a, dev = factorlog._unitary_array(u, DEFAULT_TOL)
    return (factorlog._closed_form_log(a, dev, DEFAULT_TOL) is not None, _projector_log(a, dev),
            factorlog._closed_form_branch(a, dev, k, DEFAULT_TOL) is not None,
            factorlog._closed_form_factors(a, dev, DEFAULT_TOL) is not None, _eigen_route(u))


def shares(u_list) -> tuple[float, ...]:
    """(closed log, projector log, branch log and factorize shares, eigen-route share) of u_list."""
    rows = [_taken(u, k) for u, k in zip(u_list, itertools.cycle(_WINDINGS))]
    return tuple(sum(col) / len(rows) for col in zip(*rows))


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--n", type=int, default=2000, help="inputs per family")
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args()
    print("%-16s %6s %14s %10s %11s %10s %12s"
          % ("family", "n", "principal_log", "projector", "branch_log", "factorize", "eigen route"))
    for family in ("haar",) + tuple(name for name, _ in gen.HARD_FAMILIES):
        print("%-16s %6d %13.1f%% %9.1f%% %10.1f%% %9.1f%% %11.1f%%"
              % (family, args.n, *(100.0 * x for x in shares(_inputs(family, args.n, args.seed)))))


if __name__ == "__main__":
    main()
