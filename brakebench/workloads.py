"""The benchmark's three workloads: system documents and fixed operation lists.

Every workload lists its operations up front, so a round attempts the same
operations whatever the seed.  Campaign seeds are part of the workload, not of
``--seed``: which basins a random campaign lands in changes its cost by half
(6.8 to 10.1 s over campaign seeds 0-9 on quartic-dual), which would swamp
any code change.  ``--seed`` draws the certificate samples and the Bangert
parameter nodes, whose cost does not depend on their values.
"""

from __future__ import annotations

from dataclasses import dataclass, field


def _cos_potential(coeffs):
    return " + ".join(f"{a}*cos(2*pi*q{i + 1})" for i, a in enumerate(coeffs))


@dataclass(frozen=True)
class IndexOp:
    label: str
    orbit: object          # "libration" (from the campaign) or a constant point
    ks: tuple


@dataclass(frozen=True)
class Workload:
    name: str
    kinetic: str           # built-in Lagrangian
    coeffs: tuple          # V(q) = sum_i coeffs[i] cos(2 pi q_i)
    theta: tuple
    grid: int              # samples per unit period
    period: int            # campaign and index period
    campaign: dict         # run_orbit_campaign arguments besides system and period
    index_ops: tuple
    mean_k_max: int
    bangert_ends: tuple    # constant period-1 loops the Bangert family joins
    # stages run this many times per round, their metric the median: the short,
    # interpreter-bound stages vary by 10-20% from one run to the next on a
    # shared 2-core host, and more work per run narrows that
    repeats: dict
    constants: dict = field(default_factory=dict)  # compute_constants sample counts
    # {(stage, operation label): error class name} for operations that raise
    # on every attempt today because of a known fault; any other failure, or
    # an expected one that does not happen, makes the run incorrect
    expected_failures: dict = field(default_factory=dict)

    @property
    def dim(self):
        return len(self.coeffs)

    def document(self):
        return {
            "dim": self.dim,
            "theta": [str(t) for t in self.theta],
            "lagrangian": {"builtin": self.kinetic,
                           "potential": _cos_potential(self.coeffs)},
            "numerics": {"grid": self.grid},
        }


WORKLOADS = {
    # dense Morse path at its largest: LDL^T of order up to 4096, np.add.at
    # assembly, find_critical's repeated dense k = 1 solves; no Legendre work
    "pendulum-k8": Workload(
        name="pendulum-k8", kinetic="kinetic_potential", coeffs=(1.2,), theta=(0.3,),
        grid=1024, period=1,
        campaign={"n_seeds": 4, "seed": 2, "grid": 1024, "amplitudes": (0.0, 0.2)},
        index_ops=(IndexOp("libration", "libration", (1, 2, 4, 8)),
                   IndexOp("q=0", (0.0,), (1, 2, 4)),
                   IndexOp("q=0.5", (0.5,), (1, 2, 4))),
        mean_k_max=8,   # as in acceptance criterion 5; 32 takes 13 s on q = 0 alone
        bangert_ends=((0.0,), (0.5,)),
        repeats={"modify_check": 2, "bangert": 2},
    ),
    # Fenchel-dual H: every field evaluation runs per-point Newton solves in
    # legendre; the Morse side is light
    "quartic-dual": Workload(
        name="quartic-dual", kinetic="quartic_kinetic", coeffs=(0.5,), theta=(0.3,),
        grid=256, period=2,
        campaign={"n_seeds": 2, "seed": 1},
        index_ops=(IndexOp("libration", "libration", (1, 2)),
                   IndexOp("q=0", (0.0,), (1, 2)),
                   IndexOp("q=0.5", (0.5,), (1, 2))),
        mean_k_max=8,   # 32 at period 2 integrates 64 time units: 12 s on q = 0
        constants={"q_samples": 32, "p_dirs": 8, "t_samples": 2},
        bangert_ends=((0.0,), (0.5,)),
        # the Newton-loop campaign switches between ~4.5 s and ~6.5 s regimes
        repeats={"find_orbits": 2, "modify_check": 2, "bangert": 2},
    ),
    # N = 2 paths: kron Gram, SVD crossing determinant, twice the degrees of
    # freedom; the three equilibria with a hyperbolic direction raise
    # IllConditionedCrossing today and are kept as failed operations
    "torus2-mixed": Workload(
        name="torus2-mixed", kinetic="kinetic_potential", coeffs=(0.7, 0.5),
        theta=(0.3, 0.1), grid=256, period=1,
        campaign={"n_seeds": 2, "seed": 7},
        index_ops=(IndexOp("q=(0.5,0.5)", (0.5, 0.5), (1, 2, 4)),
                   IndexOp("q=(0,0)", (0.0, 0.0), (1, 2, 4)),
                   IndexOp("q=(0,0.5)", (0.0, 0.5), (1, 2, 4)),
                   IndexOp("q=(0.5,0)", (0.5, 0.0), (1, 2, 4))),
        mean_k_max=32,  # the index command's default
        bangert_ends=((0.0, 0.0), (0.5, 0.5)),
        repeats={"find_orbits": 2, "modify_check": 2, "bangert": 2},
        # ROADMAP item 4: for N >= 2 the crossing determinant loses all
        # precision along hyperbolic growth
        expected_failures={("index", label): "IllConditionedCrossing"
                           for label in ("q=(0,0)", "q=(0,0.5)", "q=(0.5,0)")},
    ),
}
