"""The benchmark's workloads: the drsim CLI calls each one makes, derived
only from the workload seed.

Every workload is closed-loop and single-threaded: one call starts after
the previous one returns. Why each workload exists:

* ``lifetime``: defaults (N=100, 3 rings), all three protocols through
  ``drsim compare`` on ``LIFETIME_SEEDS`` consecutive seeds, every run to last
  death. Per-round work is small and about half of DR's rounds have fewer
  than 50 nodes alive, so per-call overhead and the seed loop dominate; a
  seed-batched engine shows here.
* ``dense``: N=400, one seed, each protocol through ``drsim run``, capped at
  ``DENSE_ROUNDS`` rounds, below the first death, so every node is alive
  every round; a run whose first node dies before the cap fails, so the
  premise holds for every seed. Per-round cost scales with N (LEACH-C's N x N greedy
  placement dominates) and nothing is left to batch across seeds.
* ``deep-rings``: N=400 on 8 rings (57 regions, 7-hop relay chains), DR to
  last death: geometry queries and DR's roster and relay logic do most of
  the work. LEACH and LEACH-C ignore the partition; they run only
  ``DEEP_BASELINE_ROUNDS`` rounds on the same field, so that every
  per-protocol metric exists on every workload while DR dominates its time.
"""

from __future__ import annotations

from dataclasses import dataclass

WORKLOADS = ("lifetime", "dense", "deep-rings")
PROTOCOLS = ("dr", "leach", "leach-c")

LIFETIME_SEEDS = 4          # S, the seeds per `drsim compare`
DENSE_NODES = 400
DENSE_ROUNDS = 200
DEEP_NODES = 400
DEEP_RINGS = 8
DEEP_BASELINE_ROUNDS = 50


@dataclass(frozen=True)
class Call:
    """One `drsim <command>` invocation with `--set` overrides."""
    command: str                    # "run" or "compare"
    overrides: tuple[str, ...]
    out: str                        # output subdirectory name
    runs: tuple[tuple[str, int], ...]   # (protocol, seed) simulated by it
    all_alive: bool = False         # no node may die before max_rounds

    def argv(self, out_dir: str) -> list[str]:
        argv = [self.command, "--out", out_dir]
        for item in self.overrides:
            argv += ["--set", item]
        return argv

    def run_overrides(self) -> list[list[str]]:
        """The overrides that reproduce each simulated run's config."""
        return [[*self.overrides, f"protocol={p}", f"seed={s}"]
                for p, s in self.runs]


def run_call(protocol: str, seed: int, *settings: str, all_alive=False) -> Call:
    return Call("run", (*settings, f"protocol={protocol}", f"seed={seed}"),
                f"run-{protocol}", ((protocol, seed),), all_alive)


def compare_call(seed: int, runs: int, *settings: str) -> Call:
    return Call("compare", (*settings, f"runs={runs}", f"seed={seed}"),
                "compare",
                tuple((p, seed + i) for p in PROTOCOLS for i in range(runs)))


def calls(workload: str, seed: int) -> list[Call]:
    if workload == "lifetime":
        return [compare_call(seed, LIFETIME_SEEDS)]
    if workload == "dense":
        return [run_call(p, seed, f"node_count={DENSE_NODES}",
                         f"max_rounds={DENSE_ROUNDS}", all_alive=True)
                for p in PROTOCOLS]
    if workload == "deep-rings":
        field = (f"node_count={DEEP_NODES}", f"n_rings={DEEP_RINGS}")
        return [run_call("dr", seed, *field),
                run_call("leach", seed, *field,
                         f"max_rounds={DEEP_BASELINE_ROUNDS}"),
                run_call("leach-c", seed, *field,
                         f"max_rounds={DEEP_BASELINE_ROUNDS}")]
    raise ValueError(f"unknown workload {workload!r}")
