"""Jobs and the timed pass that runs them."""
from __future__ import annotations

import hashlib
import time
import traceback
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import calib


@dataclass
class Fault:
    """A program fault that makes a job fail on purpose, and how it shows:
    `shows(result, exception)` is true when a failure is this fault and not
    another one."""

    description: str
    shows: Callable[[object, Optional[BaseException]], bool]


def raised_in(exc_type, function):
    """Fault test: `exc_type` raised with `function` on the traceback."""
    def shows(result, exc):
        return isinstance(exc, exc_type) and function in (
            frame.name for frame in traceback.extract_tb(exc.__traceback__))
    return shows


@dataclass
class Job:
    """One unit of work with a known answer.

    `run` makes only calls into the program and returns what the check
    needs; `check(result, exception)` returns (passed, digest text) and runs
    outside the timed region.  `known_fault` is the program fault that
    makes the job fail on purpose; such a job is expected to fail, in the
    way the fault shows, until the fault is fixed.
    """

    name: str
    field: str                      # "Q" or "Fp"
    run: Callable[[], object]
    check: Callable[[object, Optional[BaseException]], Tuple[bool, str]]
    known_fault: Optional[Fault] = None


@dataclass
class Outcome:
    """One run of a job, without the job itself, so that a finished pass
    releases its inputs."""

    name: str
    field: str
    known_fault: Optional[str]      # set when the job failed by its known fault
    seconds: float                  # wall time
    scaled: float                   # wall time at the reference speed (calib)
    passed: bool
    digest: str                     # sha256 of the job's reports and documents


def run_pass(jobs: List[Job], hooks=None) -> List[Outcome]:
    """Run every job once, in order; time its `run`, then check it.

    Each run is framed by two calibrations, outside the timed region and
    before the check, so that its wall time can be scaled to the
    reference speed.  `hooks`, when given, is told where each run starts
    and ends (the tracer uses it to attribute spans and uncovered time to
    jobs).
    """
    outcomes = []
    for job in jobs:
        cal_before = calib.calibrate()
        if hooks:
            hooks.begin_job(job.name)
        exc = None
        result = None
        t0 = time.perf_counter()
        try:
            result = job.run()
        except Exception as e:      # a raise is a failed job, not a crash
            exc = e
        seconds = time.perf_counter() - t0
        if hooks:
            hooks.end_job()
        cal_after = calib.calibrate()
        fault = None
        try:
            passed, text = job.check(result, exc)
            if (not passed and job.known_fault
                    and job.known_fault.shows(result, exc)):
                fault = job.known_fault.description
        except Exception as e:      # a check that cannot even read the output
            passed, text = False, f"check raised {type(e).__name__}: {e}"
        outcomes.append(Outcome(
            job.name, job.field, fault, seconds,
            calib.scaled(seconds, cal_before, cal_after), passed,
            hashlib.sha256(text.encode()).hexdigest()))
    return outcomes
