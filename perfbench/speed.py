"""Machine-speed gauge: scales measured times to a reference processor speed.

On a shared host the speed of one core drifts by up to a factor of two over
seconds, and a process's CPU time drifts with its wall time, so neither can
be compared across runs as it is.  While the gauge is active, an interval
timer interrupts the benchmark every ``EVERY_S`` seconds and times a fixed
kernel that imitates the workload's hot loop without calling isolab.  Python
runs the handler in the main thread between bytecodes, so readings also land
inside long operations.  A time, less the handler time inside it, divided by
the mean kernel time around it, times ``REF_S``, is the time the work would
take on a processor where the kernel takes ``REF_S``: drift in processor
speed cancels, while a change in isolab does not touch the kernel and shows
in full.

The drift does not slow all code alike, so each workload names its kernel:
``"arrows"`` (complex Gamma values in the interpreter, small numpy algebra,
a 3x3 eigen-solve) for the closed forms and ``"ode"`` (explicit Runge-Kutta
steps of a 3x3 linear system with an error norm) for the ODE oracles.  On
one Stokes sample repeated under a drifting core (a 2-vCPU virtual machine,
Python 3.11.7, numpy 2.4.6), the raw times spread 46%, the ``"ode"``-scaled
times 4% and the ``"arrows"``-scaled times 8%.
"""

from __future__ import annotations

import cmath
import math
import signal
import statistics
import time

import numpy as np

#: Kernel time on the reference processor; scaled times are in its units.
REF_S = 5e-4
#: Interval between readings; dense enough to average out fast fluctuations.
EVERY_S = 0.05


# Lanczos approximation (g = 7, n = 9) of the complex Gamma function.
_LANCZOS_G = 7
_LANCZOS = (0.99999999999980993, 676.5203681218851, -1259.1392167224028,
            771.32342877765313, -176.61502916214059, 12.507343278686905,
            -0.13857109526572012, 9.9843695780195716e-6, 1.5056327351493116e-7)


def _gamma(z: complex) -> complex:
    if z.real < 0.5:
        return math.pi / (cmath.sin(math.pi * z) * _gamma(1 - z))
    z -= 1
    x = _LANCZOS[0]
    for i in range(1, _LANCZOS_G + 2):
        x += _LANCZOS[i] / (z + i)
    t = z + _LANCZOS_G + 0.5
    return cmath.sqrt(2 * math.pi) * t ** (z + 0.5) * cmath.exp(-t) * x


def _arrows_kernel():
    """Gamma values, explicit steps of a 3x3 linear system, a 3x3 eigen-solve."""
    acc = 0j
    for k in range(20):
        acc += _gamma(complex(0.3 + 0.05 * k, 0.2))
    m = np.array([[0.3 + 0.1j, 0.2, 0.1], [0.05, 0.4 - 0.2j, 0.3],
                  [0.1j, 0.2, 0.5]])
    y = np.full(9, 0.1 + 0.1j)
    for _ in range(20):
        k1 = (m @ y.reshape(3, 3)).ravel()
        y = y + 0.01 * (0.2 * k1 + 0.3 * y)
        err = float(np.sqrt(np.mean(np.abs(k1 / (1e-12 + 1e-10 * np.abs(y))) ** 2)))
    return acc, err, np.linalg.eigvals(m), np.linalg.solve(m, y.reshape(3, 3))


_U = np.diag(np.array([0.0, 1.0j, 3.0j]))
_PHI = np.array([[0.2, 0.3, 0.1], [0.1j, -0.1, 0.2], [0.3, 0.1, 0.05]])


def _ode_rhs(t: float, state: np.ndarray) -> np.ndarray:
    return ((_U + _PHI / t) @ state.reshape(3, 3)).ravel()


def _ode_kernel():
    """Explicit Runge-Kutta steps of dF/dz = (U + Phi/z) F with an error norm."""
    y = np.eye(3, dtype=complex).ravel()
    t, h = 20.0, 0.004
    k1 = _ode_rhs(t, y)
    for _ in range(12):
        k2 = _ode_rhs(t + 0.2 * h, y + h * (0.2 * k1))
        k3 = _ode_rhs(t + 0.3 * h, y + h * (0.075 * k1 + 0.225 * k2))
        k4 = _ode_rhs(t + 0.8 * h, y + h * (0.97 * k1 - 3.7 * k2 + 3.5 * k3))
        y_new = y + h * (0.1 * k1 + 0.5 * k3 + 0.4 * k4)
        k5 = _ode_rhs(t + h, y_new)
        err = h * (0.01 * k1 - 0.02 * k3 + 0.01 * k5)
        scale = 1e-14 + 1e-12 * np.maximum(np.abs(y), np.abs(y_new))
        norm = float(np.sqrt(np.mean(np.abs(err / scale) ** 2)))
        y, k1, t = y_new, k5, t + h
    return y, norm


KERNELS = {"arrows": _arrows_kernel, "ode": _ode_kernel}


class SpeedGauge:
    """Use as a context manager; time work with :meth:`mark` and :meth:`scaled`."""

    def __init__(self, kernel: str) -> None:
        self._kernel = KERNELS[kernel]
        self.readings: list[float] = []
        self._spent = 0.0  # time spent taking readings
        self._previous = None

    def __enter__(self) -> "SpeedGauge":
        self._read()
        self._previous = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._read()

    def _on_timer(self, signum, frame) -> None:
        self._read()

    def _read(self) -> None:
        t0 = time.perf_counter()
        self._kernel()
        t1 = time.perf_counter()
        self.readings.append(t1 - t0)
        self._spent += t1 - t0

    def mark(self) -> tuple[float, int, float]:
        """A point in time: clock, readings taken so far, reading time so far."""
        return time.perf_counter(), len(self.readings), self._spent

    def span(self, start: tuple, end: tuple) -> tuple[float, int, int]:
        """Raw time between two marks, without readings; and the bounds
        ``lo:hi`` of the readings around it."""
        return (end[0] - start[0]) - (end[2] - start[2]), start[1] - 1, end[1] + 1

    def scaled(self, raw: float, lo: int, hi: int) -> float:
        """``raw`` at the reference speed; call after the gauge has exited."""
        return raw * REF_S / statistics.fmean(self.readings[lo:hi])

    def median_ms(self) -> float:
        return 1e3 * statistics.median(self.readings)
