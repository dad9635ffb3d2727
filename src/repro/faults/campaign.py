"""Fault-injection campaigns: rerun a kernel under seeded bit flips and
score the quality-of-result degradation.

A campaign asks the paper-adjacent question the smallFloat formats beg
for: the paper motivates narrow FP with error-tolerant application
domains, so *how tolerant is each format to actual bit errors*?  One
campaign fixes a (kernel, FP type, vectorization) configuration, then
reruns it ``runs`` times, each time with a fresh deterministic flip
schedule drawn from the campaign seed.  Every trial lands in one of
four statuses:

* ``ok``              -- ran to completion (then: *masked* if the output
                         is bit-identical to the clean run, *silent data
                         corruption* if quality degraded past a
                         threshold);
* ``trap``            -- the corruption raised an architectural trap
                         (illegal instruction, access fault, ...);
* ``budget_exceeded`` -- the corruption caused a runaway caught by the
                         instruction-budget watchdog;
* ``error``           -- a host-side failure, contained per trial.

Comparing :func:`run_campaign` results across ``float16``/``float16alt``
/``float8`` (see :func:`compare_formats`) measures bit-flip resilience
per format -- the MiniFloat-NN line of work does this for NN training;
here it runs on the paper's GEMM/SVM workloads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..harness.runner import KernelRun, run_kernel, run_kernel_safe
from ..kernels import KERNELS, KernelSpec
from .injector import (
    BitFlip,
    FaultInjector,
    FaultSpace,
    make_plan,
)

#: SQNR drop (dB) past which a completed-but-wrong trial counts as
#: silent data corruption rather than noise-level perturbation.
SDC_THRESHOLD_DB = 3.0


@dataclass(frozen=True)
class TrialResult:
    """One fault-injected rerun of the kernel."""

    trial: int
    seed: int  #: the derived per-trial RNG seed
    status: str  #: 'ok' | 'trap' | 'budget_exceeded' | 'error'
    flips: Tuple[BitFlip, ...]  #: the scheduled flips
    applied: int  #: flips actually delivered before the run ended
    masked: bool = False  #: ok and bit-identical to the clean run
    sdc: bool = False  #: ok but degraded past the SDC threshold
    sqnr_db: Optional[float] = None
    sqnr_drop_db: Optional[float] = None
    classification_error: Optional[float] = None
    instret: Optional[int] = None
    detail: str = ""


@dataclass
class CampaignResult:
    """All trials of one campaign plus the clean-run reference."""

    kernel: str
    ftype: str
    mode: str
    runs: int
    flips_per_run: int
    targets: Tuple[str, ...]
    seed: int
    mem_latency: int
    instruction_budget: int
    reference_sqnr_db: float
    reference_classification_error: Optional[float]
    reference_instret: int
    trials: List[TrialResult] = field(default_factory=list)

    # ------------------------------------------------------------------
    def count(self, status: str) -> int:
        return sum(1 for t in self.trials if t.status == status)

    def rate(self, status: str) -> float:
        return self.count(status) / len(self.trials) if self.trials else 0.0

    @property
    def masked_rate(self) -> float:
        if not self.trials:
            return 0.0
        return sum(1 for t in self.trials if t.masked) / len(self.trials)

    @property
    def sdc_rate(self) -> float:
        if not self.trials:
            return 0.0
        return sum(1 for t in self.trials if t.sdc) / len(self.trials)

    @property
    def mean_sqnr_drop_db(self) -> Optional[float]:
        """Mean SQNR degradation over completed trials (finite drops)."""
        drops = [t.sqnr_drop_db for t in self.trials
                 if t.sqnr_drop_db is not None
                 and math.isfinite(t.sqnr_drop_db)]
        return sum(drops) / len(drops) if drops else None

    def summary(self) -> Dict[str, object]:
        """Flat dict for tables, JSON dumps and the CLI."""
        return {
            "kernel": self.kernel,
            "ftype": self.ftype,
            "mode": self.mode,
            "runs": self.runs,
            "flips_per_run": self.flips_per_run,
            "targets": list(self.targets),
            "seed": self.seed,
            "reference_sqnr_db": self.reference_sqnr_db,
            "reference_classification_error":
                self.reference_classification_error,
            "ok": self.count("ok"),
            "trap": self.count("trap"),
            "budget_exceeded": self.count("budget_exceeded"),
            "error": self.count("error"),
            "masked_rate": self.masked_rate,
            "sdc_rate": self.sdc_rate,
            "trap_rate": self.rate("trap"),
            "mean_sqnr_drop_db": self.mean_sqnr_drop_db,
        }


# ----------------------------------------------------------------------
def derive_trial_seed(seed: int, trial: int) -> int:
    """Per-trial RNG seed: a fixed affine mix, stable across runs."""
    return seed * 1_000_003 + trial * 7_919 + 1


def fault_space_of(reference: KernelRun,
                   targets: Sequence[str]) -> FaultSpace:
    """Build the fault surface from a clean run's layout and length."""
    return FaultSpace(
        n_instructions=max(1, reference.instret),
        mem_ranges=tuple(sorted(reference.arrays.values())),
        text_range=reference.text_range,
    )


def _safe_sqnr(run: KernelRun) -> Optional[float]:
    try:
        return run.sqnr_db()
    except ValueError:
        # Infinite noise power (inf in the outputs): quality floor.
        return -math.inf


def _sqnr_drop(reference: float, value: Optional[float]) -> Optional[float]:
    if value is None:
        return None
    if math.isinf(reference) and math.isinf(value) and value > 0:
        return 0.0  # both bit-exact vs the binary64 golden model
    return reference - value


def _outputs_identical(a: KernelRun, b: KernelRun) -> bool:
    for name, ref in a.outputs.items():
        got = b.outputs.get(name)
        if got is None or not np.array_equal(ref, got, equal_nan=True):
            return False
    return True


# ----------------------------------------------------------------------
def run_campaign(
    kernel: Union[str, KernelSpec],
    ftype: str = "float16",
    mode: str = "scalar",
    runs: int = 20,
    flips_per_run: int = 1,
    targets: Sequence[str] = ("freg", "mem"),
    seed: int = 0,
    mem_latency: int = 1,
    params: Optional[Dict[str, int]] = None,
    data_seed: int = 0,
    instruction_budget: Optional[int] = None,
) -> CampaignResult:
    """Run one deterministic fault-injection campaign.

    The clean configuration runs once to establish the reference QoR,
    the instruction count and the memory layout; each of the ``runs``
    trials then replays it under a flip schedule derived from
    ``derive_trial_seed(seed, trial)``.  Identical arguments produce
    bit-identical campaigns.

    ``instruction_budget`` is the per-trial watchdog; it defaults to
    4x the clean run's instruction count (corrupted loop bounds are the
    common runaway, and they blow past that immediately).
    """
    spec = KERNELS[kernel] if isinstance(kernel, str) else kernel
    reference = run_kernel(spec, ftype, mode, mem_latency=mem_latency,
                           params=params, seed=data_seed)
    ref_sqnr = _safe_sqnr(reference)
    ref_cls = (reference.classification_error(spec.label_output)
               if spec.label_output else None)
    if instruction_budget is None:
        instruction_budget = max(10_000, 4 * reference.instret)
    space = fault_space_of(reference, targets)

    result = CampaignResult(
        kernel=spec.name, ftype=ftype, mode=mode, runs=runs,
        flips_per_run=flips_per_run, targets=tuple(targets), seed=seed,
        mem_latency=mem_latency, instruction_budget=instruction_budget,
        reference_sqnr_db=ref_sqnr,
        reference_classification_error=ref_cls,
        reference_instret=reference.instret,
    )

    for trial in range(runs):
        trial_seed = derive_trial_seed(seed, trial)
        plan = make_plan(space, trial_seed, flips_per_run, targets)
        injector = FaultInjector(list(plan))
        outcome = run_kernel_safe(
            spec, ftype, mode, mem_latency=mem_latency, params=params,
            seed=data_seed, max_instructions=instruction_budget,
            injector=injector,
        )
        sqnr = drop = cls_err = instret = None
        masked = sdc = False
        if outcome.run is not None:
            instret = outcome.run.instret
        if outcome.status == "ok" and outcome.run is not None:
            sqnr = _safe_sqnr(outcome.run)
            drop = _sqnr_drop(ref_sqnr, sqnr)
            if spec.label_output:
                cls_err = outcome.run.classification_error(spec.label_output)
            masked = _outputs_identical(reference, outcome.run)
            degraded = (drop is not None
                        and (math.isnan(drop) or drop > SDC_THRESHOLD_DB))
            sdc = not masked and degraded
        result.trials.append(TrialResult(
            trial=trial,
            seed=trial_seed,
            status=outcome.status,
            flips=tuple(plan),
            applied=len(injector.applied),
            masked=masked,
            sdc=sdc,
            sqnr_db=sqnr,
            sqnr_drop_db=drop,
            classification_error=cls_err,
            instret=instret,
            detail=outcome.detail,
        ))
    return result


def compare_formats(
    kernel: Union[str, KernelSpec],
    ftypes: Sequence[str] = ("float16", "float16alt", "float8"),
    **kwargs,
) -> Dict[str, CampaignResult]:
    """One campaign per FP format, same seed: the resilience comparison.

    Every format sees schedules drawn from the same campaign seed over
    its own run's fault surface, so differences in trap/SDC/masked rates
    reflect the format's (and its code's) sensitivity, not sampling
    noise from different schedules.
    """
    return {ftype: run_campaign(kernel, ftype=ftype, **kwargs)
            for ftype in ftypes}
