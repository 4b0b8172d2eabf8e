"""Workload definitions and the inputs each one generates from its seed.

Standard library only: the launcher imports this module without paying
for numpy.  The seed is the only thing that changes between runs of a
workload; it keys the random initial field of the run workloads and the
ensemble draws of the verification workload, so every run does the same
amount of work on different data.
"""

from __future__ import annotations

from dataclasses import dataclass

# The README's example coefficients: beta1 > 0, so the L2 energy law gives
# the bound max(|u0|, sqrt|Omega|) that the output checks rely on.
PARAMS = (0.4, 0.01, 1.2, 0.7, 0.25)

LEDGER_PREFIX = "state"


@dataclass(frozen=True)
class RunSpec:
    """One ``llbar run`` configuration; ``steps`` is a multiple of ``cadence``."""

    extents: tuple[float, ...]
    points: tuple[int, ...]
    modes: tuple[int, ...]
    steps: int
    cadence: int
    seed: int
    dt: float = 1e-3
    decay: float = 4.0
    amplitude: float = 0.8
    params: tuple[float, ...] = PARAMS

    @property
    def t_end(self) -> float:
        return self.steps * self.dt

    @property
    def rows(self) -> int:
        return self.steps // self.cadence + 1

    def ini(self) -> str:
        def join(values) -> str:
            return ", ".join(str(v) for v in values)

        betas = "\n".join(f"beta{i} = {b!r}" for i, b in enumerate(self.params, 1))
        return (
            f"[grid]\nextents = {join(self.extents)}\npoints = {join(self.points)}\n"
            f"modes = {join(self.modes)}\ndealias_pad = 2\n\n"
            f"[params]\n{betas}\n\n"
            f"[integrator]\ndt = {self.dt!r}\nt_end = {self.t_end!r}\nscheme = ETDRK2\n\n"
            f"[initial]\nkind = random_band\ndecay = {self.decay!r}\n"
            f"amplitude = {self.amplitude!r}\nseed = {self.seed}\n\n"
            f"[output]\ndirectory = out\ncadence = {self.cadence}\n"
            f"prefix = {LEDGER_PREFIX}\n"
        )


@dataclass(frozen=True)
class VerifySpec:
    """``verify-identities`` then ``verify-inequalities`` at their d=2 defaults."""

    count: int
    seed: int
    dim: int = 2
    points: int = 16
    modes: int = 8
    # the box the ensemble commands sample on (their fixed 1.0 x 0.8 x 1.2
    # box cut to the dimension); the independent eq3/eq4 recomputation needs it
    extents: tuple[float, ...] = (1.0, 0.8)

    def args(self, command: str, count: int | None = None) -> list[str]:
        return [
            command,
            "--dim", str(self.dim),
            "--points", str(self.points),
            "--modes", str(self.modes),
            "--count", str(self.count if count is None else count),
            "--seed", str(self.seed),
        ]


def make(workload: str, seed: int) -> RunSpec | VerifySpec:
    if workload == "run-d2-full-band":
        # band = grid: the all-cosine matrix transforms of nonlinear_term
        # dominate; the cadence equals the step count, so only two records
        return RunSpec(
            extents=(1.0, 0.8), points=(32, 32), modes=(32, 32),
            steps=3000, cadence=3000, seed=seed,
        )
    if workload == "run-d3-dense-records":
        # half band, one record per step: norms, snapshot I/O and the held
        # trajectory dominate
        return RunSpec(
            extents=(1.0, 0.8, 1.2), points=(16, 16, 16), modes=(8, 8, 8),
            steps=200, cadence=1, seed=seed,
        )
    if workload == "verify-d2-ensembles":
        return VerifySpec(count=128, seed=seed)
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("run-d2-full-band", "run-d3-dense-records", "verify-d2-ensembles")
