"""The costate pass: classical RK4 of the linear costate, backward from lam(tf) = 0.

The costate is linear in lam, so each RK4 step is an exact affine map, built
from the coefficients that ``_coefficients`` reads off the model's adjoint and
composed by a two-level doubling scan, in chunks that pay the pass's fixed cost
once per few hundred steps. The maps are augmented (n+1) x (n+1) matrices held
as C-contiguous (steps, n+1, n+1) stacks, and every product is numpy's stacked
``@``. ``solver.integrate_adjoint_backward`` runs it.
"""

from __future__ import annotations

import numpy as np

from .core import (CostWeights, ParameterSet, ValidationError, _located,
                   _raise_first_nonfinite)


# Steps per chunk of the costate pass, and per sub-block of its scan. A chunk
# pays the pass's fixed cost, one coefficient read and a few dozen numpy calls,
# once; longer chunks make fewer calls but hold more at once. A chunk's arrays
# peak at the coefficients, (2 * _BLOCK + 1, n+1, n+1), and four
# (_BLOCK, n+1, n+1) stacks, about 300 KiB for four compartments. Timed in one
# process on the flagship's 5000-step pass, 512-step chunks ran it about 15%
# faster but raised the solve's peak RSS by about 0.3 MiB; 1024-step chunks ran
# no faster, 16-step sub-blocks 3-7% slower and a one-level scan over the whole
# chunk about 18% slower.
_BLOCK = 256
_SUB_BLOCK = 8


# The costate lam' = A lam + b at the points t (P,), x (P, n), u (P, m), as augmented
# [[A, b], [0, 0]] laid out (n+1, n+1, P): one adjoint call, on (P,) columns against lam
# as (n+1, 1) columns, gives A's column k plus b at lam = e_k and b at lam = 0. Where the
# state holds an inf, 0 * inf makes b NaN, as in the pointwise costate. The model's errors pass on.
# Each adjoint output fills one whole row of the maps; the pass multiplies a (P, n+1, n+1) copy.
def _coefficients(d, w: CostWeights, p: ParameterSet, t, x, u) -> np.ndarray:
    n = d.state_dim
    q = p.values(d.required_params, t)
    out = np.zeros((n + 1, n + 1, len(t)))
    lam = list(np.eye(n, n + 1)[:, :, None])  # lam_j in column k: 1 if j == k, 0 at k = n
    for i, v in enumerate(d.adjoint(t, list(x.T.copy()), lam, list(u.T.copy()), q, w)):
        out[i] = v
    out[:n, :n] -= out[:n, n:]
    return out


def _affine_steps(coef: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Each step's RK4 map of lam' = A lam + b, as augmented matrices [[M, c], [0, 1]].

    ``coef`` holds the augmented [[A, b], [0, 0]] of L steps as a C-contiguous
    (2L+1, n+1, n+1) stack: at the L+1 nodes in integration order, then at the
    L midpoints. ``h`` holds the L signed step sizes. RK4 on a linear system is
    the exact affine map lam -> M lam + c, and each stage acts on the
    augmented [lam; 1], so each is one stacked product ``@``. The result is a
    C-contiguous (L, n+1, n+1) stack.
    """
    steps = len(h)
    a0, a1, am = coef[:steps], coef[1:steps + 1], coef[steps + 1:]
    h = h[:, None, None]
    hh = 0.5 * h
    k = am @ a0  # in place from here: few arrays live at once
    k *= hh
    k += am  # k2 = am (1 + hh k1), k1 = a0
    m = 2.0 * k
    m += a0
    k = am @ k
    k *= hh
    k += am  # k3
    m += 2.0 * k
    k = a1 @ k
    k *= h
    k += a1  # k4
    m += k
    m *= h / 6.0
    m += np.eye(len(m[0]))
    return m


def _compose(m: np.ndarray) -> np.ndarray:
    """Inclusive doubling scan along axis -3, in place: map j becomes map j after ... after map 0."""
    s = 1
    while s < m.shape[-3]:
        m[..., s:, :, :] = m[..., s:, :, :] @ m[..., :-s, :, :]
        s *= 2
    return m


def _costate_pass(d, w: CostWeights, p: ParameterSet, state: np.ndarray,
                  control: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """Classical RK4 of the linear costate lam' = A lam + b backward from lam(tf) = 0.

    A and b are fixed by the state and control rows, so each RK4 step is an
    exact affine map of lam. The pass runs in chunks of ``_BLOCK`` steps, in
    integration order. For each chunk it reads A and b (``_coefficients``) at
    the chunk's distinct stage times (the nodes, and the midpoints with the
    mean of the two end rows as drivers), forms each step's map and composes
    the maps in two levels (see ``advance``), on (steps, n+1, n+1) stacks.
    The products associate the sums differently from a stage-by-stage pass,
    so the rows agree with one to roundoff, not bitwise; lam(tf) is exactly 0.

    Finiteness is checked once per pass, and the first non-finite row in
    integration order is reported. A ValidationError from the costate is
    located at the node of the first step to meet a failing stage time (the
    latest such time), once the rows before it are integrated and checked:
    the refused chunk is run again one step at a time, and the first step to
    raise is that step.
    """
    n = d.state_dim
    ts = nodes[::-1]  # integration order
    lam = np.empty((len(nodes), n))  # allocated whole: a growing buffer is copied past the chunk arrays
    lam[-1] = 0.0
    rows = lambda: lam[done:][::-1]  # the rows so far, in integration order
    y = [0.0] * n  # the latest row
    done = len(nodes) - 1  # its node

    def points(lo):
        """Stage points from node done down to node lo: the nodes, then the midpoints."""
        t, x, u = nodes[lo:done + 1][::-1], state[lo:done + 1][::-1], control[lo:done + 1][::-1]
        return (np.concatenate([t, t[:-1] + 0.5 * (t[1:] - t[:-1])]),
                np.concatenate([x, 0.5 * (x[:-1] + x[1:])]),
                np.concatenate([u, 0.5 * (u[:-1] + u[1:])]))

    def advance(lo):
        """Integrate from node done down to node lo."""
        nonlocal done, y
        steps = done - lo
        t = nodes[lo:done + 1][::-1]
        coef = _coefficients(d, w, p, *points(lo)).transpose(2, 0, 1).copy()
        m = _affine_steps(coef, t[1:] - t[:-1])
        # Two levels: a doubling scan within every sub-block of _SUB_BLOCK steps at
        # once, then one over the sub-blocks' end maps, which carries [y; 1] to the
        # start of each sub-block. Zero maps pad the last sub-block past the last
        # step, and no step's composite includes them.
        nb = -(-steps // _SUB_BLOCK)
        m = np.concatenate([m, np.zeros((nb * _SUB_BLOCK - steps, n + 1, n + 1))])
        m = _compose(m.reshape(nb, _SUB_BLOCK, n + 1, n + 1))
        e = _compose(m[:, -1].copy())  # the chunk's map up to the end of each sub-block
        y0 = np.array(y)
        z = np.concatenate([y0[None], e[:-1, :n, :n] @ y0 + e[:-1, :n, n]])  # the row before each sub-block
        out = (m[..., :n, :n] @ z[:, None, :, None])[..., 0] + m[..., :n, n]
        lam[lo:done] = out.reshape(-1, n)[:steps][::-1]
        y, done = lam[lo].tolist(), lo

    try:
        while done > 0:
            lo = max(done - _BLOCK, 0)
            try:
                advance(lo)
            except ValidationError:
                try:
                    while done > lo:
                        advance(done - 1)
                except ValidationError as exc:
                    _raise_first_nonfinite(y, rows, ts, "adjoint", backward=True)
                    raise _located(f"adjoint left the model's domain ({exc})", ts,
                                   len(nodes) - done, backward=True) from exc
    except ArithmeticError:  # say, np.errstate(invalid="raise") in array arithmetic past a bad row
        _raise_first_nonfinite(y, rows, ts, "adjoint", backward=True)
        raise
    _raise_first_nonfinite(y, rows, ts, "adjoint", backward=True)
    return lam
